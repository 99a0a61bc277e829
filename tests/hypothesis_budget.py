"""Hypothesis example counts that scale with the loaded settings profile.

A property test pins its tier-1 example count as ``examples(n)``: ``n``
under the ``default`` profile, ten times ``n`` under ``deep`` (both
registered in ``conftest.py``).
"""

from hypothesis import settings

#: ``max_examples`` of the ``default`` profile; a pin is scaled by the loaded
#: profile's ``max_examples`` over this.
BASE_MAX_EXAMPLES = 100


def examples(count: int) -> int:
    """The example count for a test pinned at ``count`` in tier-1."""
    return count * settings.default.max_examples // BASE_MAX_EXAMPLES
