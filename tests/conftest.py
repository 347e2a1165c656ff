"""Hypothesis runs the same examples on every run of the suite.

Every property test draws its examples from a fixed seed and reads no
example database, so a pass or a failure does not depend on earlier runs or
on the working directory. `--hypothesis-profile=default`, with
`--hypothesis-seed=N` if wanted, draws other examples.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
