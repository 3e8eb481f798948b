"""Domain types, numeric conventions, and the portable matrix file format.

Probability math runs in 64-bit floats with natural logarithms throughout;
posterior rows are floored at POSTERIOR_FLOOR before any log is taken.
Matrices are exchanged on disk in the AVPF format: a 16-byte header
(magic ``AVPF``, u32 version, u32 rows, u32 cols, all little-endian)
followed by row-major 32-bit little-endian floats.
"""

from __future__ import annotations

import contextlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import POSTERIOR_FLOOR

AVPF_MAGIC = b"AVPF"
AVPF_VERSION = 1

STREAMS = ("A", "VA", "VS")


class FormatError(ValueError):
    """Raised for malformed AVPF files; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ArtifactError(ValueError):
    """A stored artifact cannot be used: it is damaged, or it was written
    for another run. The message names the file."""


@contextlib.contextmanager
def reading_artifact(path: str | Path):
    """Re-raise a failure to read or check ``path`` as ``ArtifactError``
    naming the file."""
    try:
        yield
    except ArtifactError:
        raise
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        raise ArtifactError(f"{path}: {type(exc).__name__}: {exc}") from exc


@dataclass(frozen=True)
class StreamWeights:
    """Per-frame weight vectors, one row per frame, one column per stream."""

    weights: np.ndarray  # T x M

    def __post_init__(self):
        w = self.weights
        if np.any(w < -1e-12):
            raise ValueError("simplex weights must be nonnegative")
        sums = w.sum(axis=-1)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise ValueError("simplex weights must sum to 1 per frame")


@dataclass(frozen=True)
class AlignmentTarget:
    """Ground-truth state index per frame."""

    states: np.ndarray  # T ints
    num_states: int

    def __post_init__(self):
        s = self.states
        if s.ndim != 1:
            raise ValueError("alignment must be a 1-D index vector")
        if s.size and (s.min() < 0 or s.max() >= self.num_states):
            raise ValueError("alignment state index out of range")

    @property
    def num_frames(self) -> int:
        return self.states.shape[0]


def normalize_posteriors(raw: np.ndarray, floor: float = POSTERIOR_FLOOR) -> np.ndarray:
    """Floor and renormalize a nonnegative matrix so each row is a valid
    posterior with every entry >= floor.

    Returns the fixed point of floor-then-rescale in closed form: each row
    is ``max(floor, c * p)`` for the row-normalized input ``p``, with ``c``
    chosen so the row sums to 1 (water-filling). Floored entries are
    exactly ``floor`` and the others keep their ratios, so the operation is
    idempotent. The floored set of every row grows from the entries below
    ``floor`` until it stops changing, which takes a few vectorized steps;
    there is no pass cap. Non-finite, negative and all-zero rows are refused.
    """
    raw = np.asarray(raw, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(raw).all(axis=-1))
    if bad.size:
        raise ValueError(f"non-finite posterior row at index {bad[0]}")
    if np.any(raw < 0):
        raise ValueError("posterior matrix has negative entries")
    sums = raw.sum(axis=-1, keepdims=True)
    dead = np.flatnonzero(sums <= 0)
    if dead.size:
        raise ValueError(f"all-zero posterior row at index {dead[0]}")
    p = raw / sums
    floored = p < floor
    while True:
        free = np.where(floored, 0.0, p)
        scale = ((1.0 - floor * floored.sum(axis=-1, keepdims=True))
                 / free.sum(axis=-1, keepdims=True))
        grown = floored | (scale * p < floor)
        if np.array_equal(grown, floored):
            return np.where(floored, floor, scale * p)
        floored = grown


def write_matrix(path: str | Path, matrix: np.ndarray) -> None:
    """Write a 2-D matrix to an AVPF file (values stored as float32)."""
    m = np.ascontiguousarray(matrix, dtype="<f4")
    if m.ndim != 2:
        raise ValueError("AVPF stores 2-D matrices only")
    rows, cols = m.shape
    if rows >= 2**32 or cols >= 2**32:
        raise FormatError("matrix dimensions overflow u32 header fields", 8)
    with open(path, "wb") as f:
        f.write(AVPF_MAGIC)
        f.write(struct.pack("<III", AVPF_VERSION, rows, cols))
        f.write(m.tobytes(order="C"))


def read_matrix(path: str | Path) -> np.ndarray:
    """Read an AVPF file back into a float64 matrix (bit-exact round trip
    of the stored float32 values)."""
    data = Path(path).read_bytes()
    if len(data) < 16:
        raise FormatError("truncated AVPF header", len(data))
    if data[:4] != AVPF_MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}", 0)
    version, rows, cols = struct.unpack_from("<III", data, 4)
    if version != AVPF_VERSION:
        raise FormatError(f"unsupported AVPF version {version}", 4)
    need = rows * cols * 4
    if need > 2**40:
        raise FormatError("payload size overflows sanity bound", 8)
    if len(data) != 16 + need:
        raise FormatError(
            f"payload length {len(data) - 16} does not match {rows}x{cols}", 16
        )
    flat = np.frombuffer(data, dtype="<f4", offset=16)
    return flat.reshape(rows, cols).astype(np.float64)


@dataclass
class UtteranceRecord:
    """One manifest entry: where an utterance's artifacts live on disk."""

    utt_id: str
    transcript: list[str]
    split: str
    audio_paths: dict[str, str] = field(default_factory=dict)  # condition -> wav
    posterior_paths: dict[str, dict[str, str]] = field(default_factory=dict)
    alignment_path: str = ""
    video_path: str = ""
    num_video_frames: int = 0
    num_audio_frames: int = 0


def write_manifest(path: str | Path, world_path: str, records: list[UtteranceRecord]) -> None:
    doc = {
        "world": world_path,
        "utterances": [
            {
                "id": r.utt_id,
                "transcript": r.transcript,
                "split": r.split,
                "audio": r.audio_paths,
                "posteriors": r.posterior_paths,
                "alignment": r.alignment_path,
                "video": r.video_path,
                "num_video_frames": r.num_video_frames,
                "num_audio_frames": r.num_audio_frames,
            }
            for r in records
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))


def read_manifest(path: str | Path) -> tuple[str, list[UtteranceRecord]]:
    doc = json.loads(Path(path).read_text())
    records = [
        UtteranceRecord(
            utt_id=u["id"],
            transcript=list(u["transcript"]),
            split=u["split"],
            audio_paths=dict(u["audio"]),
            posterior_paths={k: dict(v) for k, v in u["posteriors"].items()},
            alignment_path=u["alignment"],
            video_path=u["video"],
            num_video_frames=u["num_video_frames"],
            num_audio_frames=u["num_audio_frames"],
        )
        for u in doc["utterances"]
    ]
    return doc["world"], records
