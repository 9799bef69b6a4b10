"""`python -m lcmsim`: the command line without an installed script."""
from .cli import main_entry

main_entry()
