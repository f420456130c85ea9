"""``python -m torusmetrics``: the command-line front end."""

from .cli import entry

entry()
