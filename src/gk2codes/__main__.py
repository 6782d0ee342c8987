import sys

from .cli import _run

sys.exit(_run())
