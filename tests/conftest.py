"""Suite-wide settings: the `ci` Hypothesis profile runs more examples.

    python -m pytest tests/test_numtext.py tests/test_svg.py tests/test_cli_fuzz.py \
        tests/test_amplitudes.py --hypothesis-profile=ci
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=2000)
