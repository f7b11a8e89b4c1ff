"""Shared test settings.

``--hypothesis-profile=deep`` runs every property test that leaves
``max_examples`` unset at 2000 examples, for a slow, thorough run.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=2000)
