"""Output checks and digests run on every benchmark run.

Each check returns a list of problems (empty when the outputs are right)
so one run can report every fault it saw.  Digests make bit-identity with
another commit visible: equal inputs and code give equal digests.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from vcaug import signal, training


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def arrays_digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode("ascii") + a.dtype.str.encode("ascii"))
        h.update(a.tobytes())
    return h.hexdigest()


def check_ledger(ledger: training.MetricsLedger) -> list[str]:
    bad = [
        m.step for m in ledger.records
        if not all(np.isfinite(getattr(m, f)) for f in training.LEDGER_FIELDS)
    ]
    return [f"ledger has non-finite values at steps {bad}"] if bad else []


def check_converted(source: np.ndarray, out: signal.MelSpectrogram, label: str) -> list[str]:
    problems = []
    if out.data.shape != source.shape:
        problems.append(f"{label}: converted shape {out.data.shape} != source {source.shape}")
    if not np.isfinite(out.data).all():
        problems.append(f"{label}: converted features are not finite")
    return problems


def check_emit(result, out_dir: Path, source_shapes: dict[str, tuple]) -> list[str]:
    """Manifest rows name distinct files that exist, read back and match the source.

    `n_pairs` must equal both the manifest rows and the pairs found on disk,
    so a name collision that silently overwrites a pair is caught.
    """
    problems = []
    rows = [line.split("\t") for line in result.manifest_path.read_text(encoding="utf-8").splitlines()]
    malformed = [r for r in rows if len(r) != 5]
    if malformed:
        problems.append(f"{len(malformed)} malformed manifest rows")
    rows = [r for r in rows if len(r) == 5]
    names = [name for r in rows for name in r[1:3]]
    if len(set(names)) != len(names):
        problems.append("manifest rows share output files")
    on_disk = len(list(out_dir.glob("*.orig.melf")))
    if not result.n_pairs == len(rows) == on_disk:
        problems.append(
            f"n_pairs {result.n_pairs}, manifest rows {len(rows)}, pairs on disk {on_disk}"
        )
    if len(rows) + len(result.failures) != len(source_shapes):
        problems.append(
            f"{len(rows)} rows + {len(result.failures)} failures != {len(source_shapes)} sources"
        )
    for src, orig, conv, _, _ in rows:
        expected = source_shapes.get(src)
        if expected is None:
            problems.append(f"manifest names unknown source {src}")
            continue
        for name in (orig, conv):
            path = out_dir / name
            if not path.is_file():
                problems.append(f"{name} is missing")
                continue
            try:
                shape = signal.read_melf(path).data.shape
            except ValueError as e:   # MelfFormatError included
                problems.append(f"{name} does not read back: {e}")
                continue
            if shape != expected:
                problems.append(f"{name} has shape {shape}, source {src} has {expected}")
    return problems
