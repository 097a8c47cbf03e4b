"""`python -m hqrsim ARGS`: one CLI run as a whole process, through `cli.process_main`."""
from .cli import process_main

if __name__ == "__main__":
    raise SystemExit(process_main())
