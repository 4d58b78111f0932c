"""The declared runtime dependencies are the whole story: with scipy
made unimportable, the package, the calibrated models and YAML sweep
specs all still work."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

BLOCK_SCIPY = textwrap.dedent("""
    import sys

    class BlockScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is blocked")
            return None

    sys.meta_path.insert(0, BlockScipy())
""")


def test_runs_without_scipy(tmp_path):
    spec = tmp_path / "spec.yaml"
    spec.write_text("schema_version: 1\n"
                    "name: no-scipy\n"
                    "kernels: [qrng_K2]\n"
                    "axes:\n"
                    "  mechanism: [static1, prev]\n")
    code = BLOCK_SCIPY + textwrap.dedent(f"""
        import repro
        from repro.runner.units import ModelBundle
        from repro.sweep.specio import load_spec

        ModelBundle().ensure()
        assert load_spec({str(spec)!r}).name == "no-scipy"
        assert not any(m == "scipy" or m.startswith("scipy.")
                       for m in sys.modules)
        print("ok")
    """)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "ok"
