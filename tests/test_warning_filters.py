"""The tier-1 warning filters in pyproject.toml turn warnings into
errors; a failing hypothesis test must still fail alone and not abort
the session."""

pytest_plugins = ["pytester"]


def test_failing_hypothesis_test_does_not_abort_the_session(pytester, pytestconfig):
    filters = "".join(f"    {f}\n" for f in pytestconfig.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings =\n{filters}")
    pytester.makepyfile(
        """
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(n):
            assert n < 0

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    result.assert_outcomes(failed=1, passed=1)
