"""No command and no eigensolve of the package loads SciPy.

Each check runs in a fresh interpreter, because this test process has
already imported SciPy for other tests.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str, tmp_path) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_campaigns_and_resolvent_checks_never_load_scipy(tmp_path):
    run_fresh(
        """
        import sys

        import numpy as np

        import specshift
        from specshift import cayley
        from specshift.cli import CampaignConfig, run_campaign

        for kind in ("linear", "mult", "dilation", "cayley_sa", "cayley_diss"):
            status, _ = run_campaign(CampaignConfig(kind=kind, seed=1, trials=3, out=kind))
            assert status == 0, kind
        rng = np.random.default_rng(3)
        g = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
        h, h0 = 0.25 * (g + np.swapaxes(g.conj(), 1, 2))
        pair = cayley.SelfAdjointPair(h, h0)
        line = cayley.resolvent_pipeline(pair, grid=1024)
        assert cayley.verify_resolvent_formula(pair, -2j, grid=1024, line=line).passed
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded
        """,
        tmp_path,
    )


def test_dense_solves_truncate_and_diagnose_never_load_scipy(tmp_path):
    run_fresh(
        """
        import sys

        import numpy as np

        from specshift import build_projections, sampling, semispectral, spectral_cdf_unitary
        from specshift.cli import CampaignConfig, run_campaign, run_diagnose

        rng = np.random.default_rng(0)
        u = sampling.random_unitary(rng, 5)
        cdf = spectral_cdf_unitary(u)
        assert np.abs(cdf.moments([1])[0] - u).max() <= 1e-12

        q = sampling.random_unitary(rng, 4)
        n0 = (q * np.array([2.0, -1.0, 0.5j, 0.1])) @ q.conj().T
        seq = build_projections(n0, [1, 2, 4])
        off = np.linalg.norm(seq.basis.conj().T @ n0 @ seq.basis - np.diag([2.0, -1.0, 0.5j, 0.1]))
        assert off <= 1e-12, off

        # T = 0: every eigenangle is repeated, so the dilation goes dense
        dense = []
        original = semispectral._unitary_eig
        semispectral._unitary_eig = lambda u: dense.append(len(u)) or original(u)
        semispectral.semispectral_cdfs(np.zeros((1, 2, 2)), 4)
        assert dense == [1], dense

        status, _ = run_campaign(CampaignConfig(kind="truncate", seed=1, trials=3, out="truncate"))
        assert status == 0
        run_diagnose(CampaignConfig(seed=7, dims=[8], out="diagnose"))
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded
        """,
        tmp_path,
    )
