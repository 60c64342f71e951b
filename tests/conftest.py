import pytest


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Print one pass/fail line per acceptance criterion."""
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call" or not item.module.__name__.endswith("test_acceptance"):
        return
    doc = (item.function.__doc__ or item.name).strip().splitlines()[0]
    status = "PASS" if rep.passed else "FAIL"
    print(f"\n[{status}] {doc}", flush=True)


@pytest.fixture(scope="session")
def a743_json(tmp_path_factory):
    """alexander(7, 4, 3), 2401 points, as the JSON file ``make`` writes (26 MB),
    written once per session."""
    from quandles import alexander

    path = tmp_path_factory.mktemp("carriers") / "a743.json"
    path.write_text(alexander(7, 4, 3).to_json())
    return path
