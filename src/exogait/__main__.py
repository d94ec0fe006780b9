"""``python -m exogait``: the same command line as the ``exogait`` script."""

from .cli import main

if __name__ == "__main__":
    main()
