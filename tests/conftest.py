"""Suite-wide guard: no test may meet a Newton linearization that lost
positivity, even when the CurvatureSignError is caught on its way up
(run_continuation wraps it in StageFailure and the CLI exits 1)."""

import pytest

import cmlab.solver
from cmlab.errors import CurvatureSignError


@pytest.fixture(autouse=True)
def no_positivity_failure(monkeypatch):
    seen = []
    cg = cmlab.solver._cg

    def guarded(*args, **kwargs):
        try:
            return cg(*args, **kwargs)
        except CurvatureSignError as exc:
            seen.append(exc)
            raise

    monkeypatch.setattr(cmlab.solver, "_cg", guarded)
    yield
    assert not seen, f"a CG call raised CurvatureSignError: {seen[0]}"
