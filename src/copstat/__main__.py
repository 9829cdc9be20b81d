"""`python -m copstat`: the copstat command line, as the `copstat` script."""
import sys

from copstat import cli

sys.exit(cli.main())
