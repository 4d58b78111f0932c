"""Helpers shared by the benchmark modules."""

from __future__ import annotations

from pathlib import Path

OUT_ROOT = Path(__file__).parent / "out"


def artifact_dir_for(scale: float) -> Path:
    """Where the rendered artifacts of a run at ``scale`` go: the
    tracked ``benchmarks/out/`` at the default scale 1.0, and the
    git-ignored ``benchmarks/out/scale-<s>/`` at any other scale, so a
    reduced-scale run never rewrites the committed figures."""
    out = OUT_ROOT if scale == 1.0 else OUT_ROOT / f"scale-{scale:g}"
    out.mkdir(parents=True, exist_ok=True)
    return out


def save_artifact(artifact_dir: Path, name: str, text: str) -> None:
    """Write a rendered figure/table and echo it to the console."""
    (artifact_dir / name).write_text(text + "\n")
    print("\n" + text)
