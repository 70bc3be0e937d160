"""Shared pytest set-up.

The ``mutants`` hypothesis profile runs the explicit, reuse and generate
phases only. ``tests/mutants.py`` selects it: a mutant is killed by the
first failing example, so shrinking that example adds time and no
verdict. A plain pytest run does not load it.
"""

from hypothesis import Phase, settings

settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate))
