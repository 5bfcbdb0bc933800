"""Dataset file formats and manifests.

Text records are JSON with floats printed to 9 significant digits, which is
diff-friendly and idempotent under write -> load -> write.  A packed binary
variant (little-endian float32 blocks behind a JSON header) is selected by
the ``.bin`` extension for larger corpora.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .core import DataError, EmbeddingSequence, LabeledVideo, SegmentMap, SegmentedPair

FORMAT_VERSION = 1
_BIN_MAGIC = b"TALNBIN1"


def fmt9(x: float) -> str:
    """Deterministic 9-significant-digit rendering, JSON-compatible."""
    return format(float(x), ".9g")


def dump_json(obj) -> str:
    """JSON text with fmt9 floats and stable key order (insertion order)."""

    def emit(o) -> str:
        if isinstance(o, dict):
            return "{" + ", ".join(f"{json.dumps(str(k))}: {emit(v)}" for k, v in o.items()) + "}"
        if isinstance(o, (list, tuple)):
            return "[" + ", ".join(emit(v) for v in o) + "]"
        if isinstance(o, bool) or o is None:
            return json.dumps(o)
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return fmt9(o)
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, np.ndarray):
            return emit(o.tolist())
        raise TypeError(f"cannot serialize {type(o)!r}")

    return emit(obj)


def _embedding_rows(units: np.ndarray, with_ids: list[str] | None = None) -> list[dict]:
    rows = []
    for i, row in enumerate(units):
        rec = {}
        if with_ids is not None:
            rec["id"] = with_ids[i]
        rec["embedding"] = [float(x) for x in row]
        rows.append(rec)
    return rows


def pair_to_record(pair: SegmentedPair) -> dict:
    caption_ids = [f"{pair.id}-c{i}" for i in range(len(pair.anchor))]
    return {
        "id": pair.id,
        "dim": pair.anchor.dim,
        "captions": _embedding_rows(pair.anchor.units, caption_ids),
        "clips": _embedding_rows(pair.positive.units),
        "segments": [{"caption_index": c, "start": s, "end": e} for c, s, e in pair.segments],
    }


def record_to_pair(rec: dict, *, where: str = "pair record") -> SegmentedPair:
    for key in ("id", "dim", "captions", "clips", "segments"):
        if key not in rec:
            raise DataError(f"{where}: missing field {key!r}")
    dim = int(rec["dim"])

    def rows(entries, what):
        try:
            arr = np.asarray([e["embedding"] for e in entries], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{where}: field {what!r} malformed: {exc}") from exc
        if arr.ndim != 2 or arr.shape[1] != dim:
            raise DataError(f"{where}: field {what!r} does not match dim={dim}")
        return arr

    segments = []
    for seg in rec["segments"]:
        try:
            segments.append((int(seg["caption_index"]), int(seg["start"]), int(seg["end"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{where}: field 'segments' malformed: {exc}") from exc
    pid = str(rec["id"])
    return SegmentedPair(
        id=pid,
        anchor=EmbeddingSequence(f"{pid}-captions", rows(rec["captions"], "captions")),
        positive=EmbeddingSequence(f"{pid}-clips", rows(rec["clips"], "clips")),
        segments=SegmentMap(tuple(segments)),
    )


def video_to_record(video: LabeledVideo) -> dict:
    return {
        "id": video.id,
        "label": video.label,
        "dim": video.frames.dim,
        "frames": _embedding_rows(video.frames.units),
    }


def record_to_video(rec: dict, *, where: str = "video record") -> LabeledVideo:
    for key in ("id", "label", "dim", "frames"):
        if key not in rec:
            raise DataError(f"{where}: missing field {key!r}")
    try:
        frames = np.asarray([e["embedding"] for e in rec["frames"]], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{where}: field 'frames' malformed: {exc}") from exc
    if frames.ndim != 2 or frames.shape[1] != int(rec["dim"]):
        raise DataError(f"{where}: field 'frames' does not match dim={rec['dim']}")
    vid = str(rec["id"])
    return LabeledVideo(id=vid, label=str(rec["label"]), frames=EmbeddingSequence(vid, frames))


# -- binary variant ---------------------------------------------------------


def _write_binary(path, meta: dict, blocks: list[np.ndarray]) -> None:
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC)
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f4").tobytes())


def read_float32_container(path, magic: bytes, header_fmt: str, shapes_key: str):
    """Read ``magic``, a little-endian struct ``header_fmt`` whose last field
    is the metadata length, a JSON object, then one float32 block per entry
    of ``meta[shapes_key]`` (a shape list, or an object with a ``shape``
    list), and nothing after.

    Returns (the header fields before the length, metadata, float64 blocks).
    Every malformed or truncated header and block raises DataError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(magic)] != magic:
        raise DataError(f"{path}: bad magic {data[: len(magic)]!r}")
    meta_start = len(magic) + struct.calcsize(header_fmt)
    if len(data) < meta_start:
        raise DataError(f"{path}: truncated header")
    *fields, meta_len = struct.unpack_from(header_fmt, data, len(magic))
    offset = meta_start + meta_len
    if len(data) < offset:
        raise DataError(f"{path}: truncated metadata")
    try:
        meta = json.loads(data[meta_start:offset].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: invalid metadata: {exc}") from exc
    if not isinstance(meta, dict) or not isinstance(meta.get(shapes_key), list):
        raise DataError(f"{path}: metadata is not an object with a {shapes_key!r} list")
    blocks = []
    for entry in meta[shapes_key]:
        shape = entry.get("shape") if isinstance(entry, dict) else entry
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise DataError(f"{path}: block shape {shape!r} is not a list of non-negative integers")
        n = math.prod(shape)
        if len(data) < offset + 4 * n:
            raise DataError(f"{path}: truncated block")
        blocks.append(np.frombuffer(data, dtype="<f4", count=n, offset=offset).astype(np.float64).reshape(shape))
        offset += 4 * n
    if offset != len(data):
        raise DataError(f"{path}: {len(data) - offset} trailing bytes")
    return fields, meta, blocks


def _read_binary(path, kind: str, fields: tuple[str, ...], n_blocks: int) -> tuple[dict, list[np.ndarray]]:
    _, meta, blocks = read_float32_container(path, _BIN_MAGIC, "<I", "shapes")
    if meta.get("kind") != kind:
        raise DataError(f"{path}: expected a {kind} record, got kind {meta.get('kind')!r}")
    missing = [key for key in fields if key not in meta]
    if missing or len(blocks) != n_blocks:
        raise DataError(f"{path}: {kind} record lacks fields {missing} or has {len(blocks)} blocks, not {n_blocks}")
    return meta, blocks


def save_pair(pair: SegmentedPair, path) -> None:
    path = str(path)
    if path.endswith(".bin"):
        meta = {
            "kind": "pair",
            "id": pair.id,
            "dim": pair.anchor.dim,
            "segments": [list(e) for e in pair.segments],
            "shapes": [list(pair.anchor.units.shape), list(pair.positive.units.shape)],
        }
        _write_binary(path, meta, [pair.anchor.units, pair.positive.units])
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(pair_to_record(pair)))
        fh.write("\n")


def load_pair(path) -> SegmentedPair:
    path = str(path)
    if path.endswith(".bin"):
        meta, (anchor, clips) = _read_binary(path, "pair", ("id", "segments"), 2)
        pid = str(meta["id"])
        try:
            segments = SegmentMap(tuple(tuple(e) for e in meta["segments"]))
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: field 'segments' malformed: {exc}") from exc
        return SegmentedPair(
            id=pid,
            anchor=EmbeddingSequence(f"{pid}-captions", anchor),
            positive=EmbeddingSequence(f"{pid}-clips", clips),
            segments=segments,
        )
    with open(path, encoding="utf-8") as fh:
        try:
            rec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from exc
    return record_to_pair(rec, where=path)


def save_video(video: LabeledVideo, path) -> None:
    path = str(path)
    if path.endswith(".bin"):
        meta = {
            "kind": "video",
            "id": video.id,
            "label": video.label,
            "dim": video.frames.dim,
            "shapes": [list(video.frames.units.shape)],
        }
        _write_binary(path, meta, [video.frames.units])
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(video_to_record(video)))
        fh.write("\n")


def load_video(path) -> LabeledVideo:
    path = str(path)
    if path.endswith(".bin"):
        meta, (frames,) = _read_binary(path, "video", ("id", "label"), 1)
        vid = str(meta["id"])
        return LabeledVideo(id=vid, label=str(meta["label"]), frames=EmbeddingSequence(vid, frames))
    with open(path, encoding="utf-8") as fh:
        try:
            rec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from exc
    return record_to_video(rec, where=path)


# -- manifests --------------------------------------------------------------


@dataclass
class DatasetManifest:
    kind: str  # "pairs" or "videos"
    dim: int
    entries: list[dict]  # {"id", "path", "split"}
    format_version: int = FORMAT_VERSION

    def to_record(self) -> dict:
        return {
            "format_version": self.format_version,
            "kind": self.kind,
            "dim": self.dim,
            "entries": self.entries,
        }


def save_dataset(out_dir, items: list[tuple[object, str]], kind: str, fmt: str = "json") -> DatasetManifest:
    """Write records plus a manifest; ``items`` pairs each record with its
    split tag.  Returns the manifest."""
    if kind not in ("pairs", "videos"):
        raise DataError(f"kind must be 'pairs' or 'videos', got {kind!r}")
    if fmt not in ("json", "bin"):
        raise DataError(f"fmt must be 'json' or 'bin', got {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    sub = os.path.join(out_dir, kind)
    os.makedirs(sub, exist_ok=True)
    entries = []
    dims = set()
    for item, split in items:
        rel = os.path.join(kind, f"{item.id}.{fmt}")
        if kind == "pairs":
            save_pair(item, os.path.join(out_dir, rel))
            dims.add(item.anchor.dim)
        else:
            save_video(item, os.path.join(out_dir, rel))
            dims.add(item.frames.dim)
        entries.append({"id": item.id, "path": rel, "split": split})
    if len(dims) != 1:
        raise DataError(f"dataset mixes dims {sorted(dims)}")
    manifest = DatasetManifest(kind=kind, dim=dims.pop(), entries=entries)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(dump_json(manifest.to_record()))
        fh.write("\n")
    return manifest


def load_dataset(data_dir):
    """Read a manifest and all its records -> (manifest, {split: [items]})."""
    manifest_path = os.path.join(data_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise DataError(f"{data_dir}: no manifest.json")
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            rec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{manifest_path}: invalid JSON: {exc}") from exc
    for key in ("format_version", "kind", "dim", "entries"):
        if key not in rec:
            raise DataError(f"{manifest_path}: missing field {key!r}")
    if int(rec["format_version"]) != FORMAT_VERSION:
        raise DataError(f"{manifest_path}: unsupported format_version {rec['format_version']}")
    manifest = DatasetManifest(kind=rec["kind"], dim=int(rec["dim"]), entries=list(rec["entries"]))
    by_split: dict[str, list] = {}
    for entry in manifest.entries:
        path = os.path.join(data_dir, entry["path"])
        if not os.path.exists(path):
            raise DataError(f"{manifest_path}: entry path {entry['path']!r} does not exist")
        item = load_pair(path) if manifest.kind == "pairs" else load_video(path)
        dim = item.anchor.dim if manifest.kind == "pairs" else item.frames.dim
        if dim != manifest.dim:
            raise DataError(f"{entry['path']}: dim {dim} != manifest dim {manifest.dim}")
        by_split.setdefault(entry.get("split", "train"), []).append(item)
    return manifest, by_split


def write_csv(path, rows) -> None:
    """Rows of (task, measure, k, value) under the fixed CSV schema."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("task,measure,k,value\n")
        for task, measure, k, value in rows:
            fh.write(f"{task},{measure},{int(k)},{fmt9(value)}\n")
