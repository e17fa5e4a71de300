"""Shared test settings.

Every hypothesis property test runs under one profile: derandomized, with
no deadline and no example database, so each checkout of the code runs the
same examples and a slow first call is not a failure.
"""

try:
    from hypothesis import settings
except ImportError:  # the property-test modules skip themselves
    pass
else:
    settings.register_profile("aerobot", derandomize=True, deadline=None, database=None)
    settings.load_profile("aerobot")
