"""`python -m prockb`: the prockb command line."""

from .cli import console_main

console_main()
