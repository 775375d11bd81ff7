from hypothesis import settings

# Every CLI fuzz test runs under this profile, applied as
# `@settings(settings.get_profile("cli-fuzz"))`: a fixed, derandomized set
# of at most 40 examples per test, so tier-1 runs are reproducible and
# their example count is set here once. It is not loaded globally, so the
# other property tests keep their own settings.
settings.register_profile("cli-fuzz", max_examples=40, derandomize=True, deadline=None,
                          database=None)
