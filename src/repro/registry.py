"""The shared "unknown name" message for name-selected implementations.

:func:`unknown_name_message` formats every "no such name" error, such as
``ExtractorConfig`` validation of its ``engine`` name.
"""

from __future__ import annotations

import difflib
from typing import Sequence


def unknown_name_message(kind: str, name: str, available: Sequence[str]) -> str:
    """Error message for an unresolved name.

    Reports the available alternatives — plus a closest-match hint for the
    common typo case.
    """
    listed = ", ".join(available) if available else "<none registered>"
    message = f"unknown {kind} {name!r}; available: {listed}"
    close = difflib.get_close_matches(name, list(available), n=1)
    if close:
        message += f" (did you mean {close[0]!r}?)"
    return message
