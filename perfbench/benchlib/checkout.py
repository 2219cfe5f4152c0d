"""Locating the library under test: ``src/repro`` in the checkout the
benchmark is run from (the current directory), never an installed copy."""

from __future__ import annotations

import os
import sys

#: Exit status when the benchmark cannot run at all.
NO_LIBRARY = 2


def library_root() -> str:
    return os.path.abspath("src")


def require_library() -> None:
    """Exit with :data:`NO_LIBRARY` unless the checkout holds the library."""
    if not os.path.isfile(os.path.join(library_root(), "repro", "__init__.py")):
        print(
            f"no library to benchmark: {library_root()}/repro is missing "
            "(run from the root of a checkout)",
            file=sys.stderr,
        )
        raise SystemExit(NO_LIBRARY)


def use_checkout_library() -> None:
    """Put the checkout's ``src`` first on the import path and make sure
    ``repro`` resolves there; exits with :data:`NO_LIBRARY` otherwise."""
    require_library()
    sys.path.insert(0, library_root())
    import repro

    if not os.path.abspath(repro.__file__).startswith(library_root()):
        print(f"repro resolved outside the checkout: {repro.__file__}",
              file=sys.stderr)
        raise SystemExit(NO_LIBRARY)
