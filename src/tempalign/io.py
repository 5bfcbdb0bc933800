"""Dataset file formats and manifests.

A record holds one pair or one video.  :func:`save_item` writes either kind
and :func:`load_item` reads it back; ``save_dataset`` / ``load_dataset`` add a
manifest over a directory of records.  Text records are JSON with floats
printed to 9 significant digits, which is diff-friendly and idempotent under
write -> load -> write.  A packed binary variant (little-endian float32
blocks behind a JSON header) is selected by the ``.bin`` extension for
larger corpora.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .core import DataError, EmbeddingSequence, LabeledVideo, NumericalError, SegmentMap, SegmentedPair

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


def read_json(path):
    """The JSON value a text file holds; DataError if it is not valid JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from exc


def write_json(path, obj) -> None:
    """Write ``obj`` as one :func:`dump_json` line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(obj) + "\n")


def _require(rec, keys: tuple[str, ...], where: str) -> None:
    """Raise DataError unless ``rec`` is a JSON object holding every key."""
    if not isinstance(rec, dict):
        raise DataError(f"{where}: expected a JSON object, got {type(rec).__name__}")
    for key in keys:
        if key not in rec:
            raise DataError(f"{where}: missing field {key!r}")


def _int_field(rec: dict, key: str, where: str) -> int:
    try:
        return int(rec[key])
    except (TypeError, ValueError) as exc:
        raise DataError(f"{where}: field {key!r} is not an integer: {exc}") from exc


# -- float32 containers -----------------------------------------------------


def write_float32_container(path, magic: bytes, header_fmt: str, fields, meta: dict, blocks) -> None:
    """Write what :func:`read_float32_container` reads: ``magic``, the header
    ``fields`` and the metadata length packed as ``header_fmt``, ``meta`` as
    sorted-key JSON, then each block as little-endian float32.

    Raises NumericalError, before the file is opened, if a block holds a
    value that is not finite or lies outside the float32 range.
    """
    limit = np.finfo(np.float32).max
    for block in blocks:
        if not np.all(np.abs(block) <= limit):
            raise NumericalError(f"{path}: a block holds a value that is not finite or outside the float32 range")
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack(header_fmt, *fields, len(meta_bytes)) + meta_bytes)
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f4").tobytes())


def read_float32_container(path, magic: bytes, header_fmt: str, shapes_key: str):
    """Read ``magic``, a little-endian struct ``header_fmt`` whose last field
    is the metadata length, a JSON object, then one float32 block per entry
    of ``meta[shapes_key]`` (a shape list, or an object with a ``shape``
    list), and nothing after.

    Returns (the header fields before the length, metadata, float64 blocks).
    Every malformed or truncated header and every block holding a non-finite
    value raises DataError.
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
        block = np.frombuffer(data, dtype="<f4", count=n, offset=offset)
        if not np.all(np.isfinite(block)):
            raise DataError(f"{path}: block holds non-finite values")
        blocks.append(block.astype(np.float64).reshape(shape))
        offset += 4 * n
    if offset != len(data):
        raise DataError(f"{path}: {len(data) - offset} trailing bytes")
    return fields, meta, blocks


# -- records ----------------------------------------------------------------

# kind -> (fields every record holds, unit-block names in file order)
_KINDS = {
    "pair": (("id", "dim", "segments"), ("captions", "clips")),
    "video": (("id", "label", "dim"), ("frames",)),
}
_SEGMENT_KEYS = ("caption_index", "start", "end")


def _fields(item) -> tuple[str, dict, list[np.ndarray]]:
    """(kind, fields in JSON order with segments as triples, unit blocks in
    file order) of a SegmentedPair or a LabeledVideo."""
    if isinstance(item, SegmentedPair):
        fields = {"id": item.id, "dim": item.anchor.dim, "segments": [list(e) for e in item.segments]}
        return "pair", fields, [item.anchor.units, item.positive.units]
    return "video", {"id": item.id, "label": item.label, "dim": item.frames.dim}, [item.frames.units]


def save_item(item, path) -> None:
    """Write a SegmentedPair or a LabeledVideo: a float32 container (sorted
    JSON header, segments as triples) if ``path`` ends in ``.bin``, else one
    JSON record (unit rows as ``{"embedding": [...]}`` objects, captions with
    an id, segments as ``{"caption_index", "start", "end"}`` objects)."""
    path = str(path)
    kind, fields, blocks = _fields(item)
    if path.endswith(".bin"):
        meta = {"kind": kind, **fields, "shapes": [list(block.shape) for block in blocks]}
        write_float32_container(path, _BIN_MAGIC, "<I", (), meta, blocks)
        return
    record = {key: value for key, value in fields.items() if key != "segments"}
    for name, block in zip(_KINDS[kind][1], blocks):
        record[name] = [{"embedding": [float(x) for x in row]} for row in block]
    if kind == "pair":
        record["captions"] = [{"id": f"{item.id}-c{i}", **row} for i, row in enumerate(record["captions"])]
        record["segments"] = [dict(zip(_SEGMENT_KEYS, e)) for e in fields["segments"]]
    write_json(path, record)


def load_item(path, kind: str):
    """Read the ``kind`` ("pair" or "video") record :func:`save_item` writes
    to ``path``.  Every malformed record raises DataError, and so does a unit
    block whose width is not the record's ``dim``, in either format."""
    path = str(path)
    binary = path.endswith(".bin")
    fields, names = _KINDS[kind]
    # 1. the record's fields and its float64 unit blocks
    if binary:
        _, rec, blocks = read_float32_container(path, _BIN_MAGIC, "<I", "shapes")
        if rec.get("kind") != kind:
            raise DataError(f"{path}: expected a {kind} record, got kind {rec.get('kind')!r}")
        _require(rec, fields, path)
        if len(blocks) != len(names):
            raise DataError(f"{path}: a {kind} record has {len(blocks)} blocks, not {len(names)}")
    else:
        rec = read_json(path)
        _require(rec, fields + names, path)
        blocks = []
        for name in names:
            try:
                blocks.append(np.asarray([e["embedding"] for e in rec[name]], dtype=np.float64))
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}: field {name!r} malformed: {exc}") from exc
    # 2. every block against the record's dim
    dim = _int_field(rec, "dim", path)
    for name, block in zip(names, blocks):
        if block.ndim != 2 or block.shape[1] != dim:
            raise DataError(f"{path}: field {name!r} does not match dim={dim}")
    # 3. the item
    rid = str(rec["id"])
    if kind == "video":
        return LabeledVideo(id=rid, label=str(rec["label"]), frames=EmbeddingSequence(rid, blocks[0]))
    try:
        entries = rec["segments"] if binary else [[seg[key] for key in _SEGMENT_KEYS] for seg in rec["segments"]]
        segments = SegmentMap(tuple(tuple(e) for e in entries))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: field 'segments' malformed: {exc}") from exc
    return SegmentedPair(
        id=rid,
        anchor=EmbeddingSequence(f"{rid}-captions", blocks[0]),
        positive=EmbeddingSequence(f"{rid}-clips", blocks[1]),
        segments=segments,
    )


# -- manifests --------------------------------------------------------------


@dataclass
class DatasetManifest:
    kind: str  # "pairs" or "videos"
    dim: int
    entries: list[dict]  # {"id", "path", "split"}


def save_dataset(out_dir, items: list[tuple[object, str]], kind: str, fmt: str = "json") -> DatasetManifest:
    """Write records plus a manifest; ``items`` pairs each record with its
    split tag.  Returns the manifest.  Each record is written to a file named
    by its id, so ids must be distinct."""
    if kind not in ("pairs", "videos"):
        raise DataError(f"kind must be 'pairs' or 'videos', got {kind!r}")
    if fmt not in ("json", "bin"):
        raise DataError(f"fmt must be 'json' or 'bin', got {fmt!r}")
    if len({item.id for item, _ in items}) != len(items):
        raise DataError("dataset items must have distinct ids")
    os.makedirs(out_dir, exist_ok=True)
    sub = os.path.join(out_dir, kind)
    os.makedirs(sub, exist_ok=True)
    entries = []
    dims = set()
    for item, split in items:
        rel = os.path.join(kind, f"{item.id}.{fmt}")
        save_item(item, os.path.join(out_dir, rel))
        dims.add(item.anchor.dim if kind == "pairs" else item.frames.dim)
        entries.append({"id": item.id, "path": rel, "split": split})
    if len(dims) != 1:
        raise DataError(f"dataset mixes dims {sorted(dims)}")
    manifest = DatasetManifest(kind, dims.pop(), entries)
    record = {"format_version": FORMAT_VERSION, "kind": kind, "dim": manifest.dim, "entries": entries}
    write_json(os.path.join(out_dir, "manifest.json"), record)
    return manifest


def load_dataset(data_dir):
    """Read a manifest and all its records -> (manifest, {split: [items]}).

    Raises DataError if two records share an id: training and evaluation
    tell items apart by id.
    """
    manifest_path = os.path.join(data_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise DataError(f"{data_dir}: no manifest.json")
    rec = read_json(manifest_path)
    _require(rec, ("format_version", "kind", "dim", "entries"), manifest_path)
    if _int_field(rec, "format_version", manifest_path) != FORMAT_VERSION:
        raise DataError(f"{manifest_path}: unsupported format_version {rec['format_version']}")
    if rec["kind"] not in ("pairs", "videos"):
        raise DataError(f"{manifest_path}: kind must be 'pairs' or 'videos', got {rec['kind']!r}")
    if not isinstance(rec["entries"], list):
        raise DataError(f"{manifest_path}: field 'entries' must be a list")
    manifest = DatasetManifest(rec["kind"], _int_field(rec, "dim", manifest_path), rec["entries"])
    by_split: dict[str, list] = {}
    seen: set[str] = set()
    for i, entry in enumerate(manifest.entries):
        if not isinstance(entry, dict):
            raise DataError(f"{manifest_path}: entry {i} is not an object")
        if not isinstance(entry.get("path"), str):
            raise DataError(f"{manifest_path}: entry {i} needs a string 'path'")
        if not isinstance(entry.get("split", "train"), str):
            raise DataError(f"{manifest_path}: entry {i} has a non-string 'split'")
        path = os.path.join(data_dir, entry["path"])
        if not os.path.exists(path):
            raise DataError(f"{manifest_path}: entry path {entry['path']!r} does not exist")
        item = load_item(path, manifest.kind[:-1])  # "pairs" -> "pair"
        dim = item.anchor.dim if manifest.kind == "pairs" else item.frames.dim
        if dim != manifest.dim:
            raise DataError(f"{entry['path']}: dim {dim} != manifest dim {manifest.dim}")
        if item.id in seen:
            raise DataError(f"{entry['path']}: id {item.id!r} is taken by an earlier entry")
        seen.add(item.id)
        by_split.setdefault(entry.get("split", "train"), []).append(item)
    return manifest, by_split


def write_csv(path, rows) -> None:
    """Rows of (task, measure, k, value) under the fixed CSV schema."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("task,measure,k,value\n")
        for task, measure, k, value in rows:
            fh.write(f"{task},{measure},{int(k)},{fmt9(value)}\n")
