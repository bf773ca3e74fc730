from hypothesis import settings

# Property tests run a fixed number of examples, drawn the same way on
# every run, with no time limit per example: tier-1 time and outcome do
# not depend on the machine or on earlier runs.
settings.register_profile("mteq", max_examples=40, deadline=None,
                          derandomize=True, database=None)
settings.load_profile("mteq")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line per acceptance criterion at the end of the run."""
    try:
        import test_acceptance
    except ImportError:
        return
    results = getattr(test_acceptance, "CRITERIA_RESULTS", {})
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(results):
        ok, summary = results[num]
        terminalreporter.write_line(
            f"{'PASS' if ok else 'FAIL'} criterion {num}: {summary}")
