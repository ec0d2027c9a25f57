"""The suite's own pytest settings let a failing test report itself."""

pytest_plugins = ["pytester"]


def test_a_failing_property_shows_its_falsifying_example(pytester, pytestconfig):
    """Under the project's filterwarnings, a failing Hypothesis test ends
    with its falsifying example, not an INTERNALERROR.  It runs in a fresh
    process: Hypothesis imports the module that warns only on a failure."""
    filters = "".join(f"\n    {rule}" for rule in pytestconfig.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings ={filters}\n")
    pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 10
    """)
    result = pytester.runpytest_subprocess()
    result.stdout.fnmatch_lines(["*Falsifying example: test_fails(*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
    assert result.ret == 1
