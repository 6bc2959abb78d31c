"""`python -m ecckernel` runs the `ecc` command line."""

from .cli import main

if __name__ == "__main__":
    main()
