"""Shared test settings.

``--hypothesis-profile=deep`` runs every property test that leaves
``max_examples`` unset at 2000 examples, for a slow, thorough run; the
encoder's property test takes the profile's count where it exceeds its own.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=2000)
