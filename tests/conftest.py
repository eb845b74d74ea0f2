from hypothesis import settings

# Property tests draw the same examples on every run and have no time
# limit per example, so a slow or shared machine cannot make them flaky.
settings.register_profile("deterministic", deadline=None, derandomize=True, database=None)
settings.load_profile("deterministic")
