"""The suite's own pytest settings: a failing test must not stop the run."""

pytest_plugins = ["pytester"]


def test_a_failing_property_test_leaves_the_rest_of_the_run_going(pytester, request):
    # Warnings are errors in this suite. While hypothesis reports a failure,
    # its report hook raises a third-party DeprecationWarning; turned into an
    # error there, it ends the whole run with INTERNALERROR.
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(
        f"    {w}\n" for w in request.config.getini("filterwarnings")))
    pytester.makepyfile(test_pair="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 10

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess()
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.stdout.fnmatch_lines(["*= 1 failed, 1 passed in *"])
