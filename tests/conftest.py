"""Hypothesis settings profiles for the test suite.

`pytest --hypothesis-profile=no-shrink` reports the first failing example a
test finds, as it was drawn, without the shrink phase: on the ~1,000-digit
draws of the Fraction-reference oracles, shrinking a failure can take minutes.
This suits a run whose only question is whether a test fails, such as a run
over a mutant.  Without the option the tests keep Hypothesis's defaults and
their own settings.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "no-shrink", phases=[phase for phase in Phase if phase is not Phase.shrink], print_blob=True
)
