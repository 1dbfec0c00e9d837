"""`python -m mptcpkit`: the `mptcpkit` command, runnable from a checkout with
`PYTHONPATH=src` and no install."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
