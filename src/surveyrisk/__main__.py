"""``python -m surveyrisk``: the command line, as the ``surveyrisk`` script."""

from .cli import main

if __name__ == "__main__":
    main()
