"""``python -m htd``: the htd command line."""

from .cli import main

main()
