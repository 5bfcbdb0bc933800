import json
import struct

import numpy as np
import pytest

from conftest import make_pair, seq
from tempalign import cli
from tempalign.core import DataError, LabeledVideo
from tempalign.io import load_dataset, save_dataset, save_item
from tempalign.synth import FewshotSynthConfig, SynthConfig, gen_corpus, gen_fewshot_corpus
from tempalign.train import ProjectionModel, load_checkpoint, save_checkpoint

# Values exact in float32, so the .json and .bin copies print the same record.
CAPTIONS = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
CLIPS = [[0.5, 0.5, 1.0], [1.0, 0.25, 0.0], [0.0, 1.0, 0.5], [0.25, 0.0, 1.0], [1.0, 1.0, 1.0]]
# One segment per caption; clip 0 is background.
SEGMENTS = [(0, 1, 2), (1, 2, 3), (2, 3, 4)]

DTW_PATH = ', "path": [[0, 0], [0, 1], [1, 2], [2, 3], [2, 4]]}'
OTAM_PATH = ', "path": [[0, 1], [1, 2], [2, 3]]}'
EXPECTED = {
    ("dtw", False): '{"pair": "toy", "measure": "dtw", "score": 3.82031075, "distance": 1.17968925' + DTW_PATH,
    ("dtw", True): '{"pair": "toy", "measure": "dtw", "score": 0.76406215, "distance": 1.17968925' + DTW_PATH,
    ("otam", False): '{"pair": "toy", "measure": "otam", "score": 2.83471219, "distance": 0.165287809' + OTAM_PATH,
    ("otam", True): '{"pair": "toy", "measure": "otam", "score": 0.944904064, "distance": 0.165287809' + OTAM_PATH,
}


@pytest.fixture(params=["json", "bin"])
def pair_file(request, tmp_path):
    path = tmp_path / f"toy.{request.param}"
    save_item(make_pair(CAPTIONS, CLIPS, SEGMENTS, pid="toy"), path)
    return str(path)


def run_align(capsys, *args):
    code = cli.main(["align", *args])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("measure", ["dtw", "otam"])
@pytest.mark.parametrize("normalize", [False, True])
def test_align_prints_exact_record(capsys, pair_file, measure, normalize):
    flags = ["--normalize"] if normalize else []
    code, out, _ = run_align(capsys, "--pair", pair_file, "--measure", measure, *flags, "--emit-path")
    assert code == 0
    assert out == EXPECTED[(measure, normalize)] + "\n"


def test_align_without_emit_path_omits_path(capsys, pair_file):
    code, out, _ = run_align(capsys, "--pair", pair_file)
    assert code == 0
    assert out == EXPECTED[("dtw", False)].split(', "path"')[0] + "}\n"


def test_missing_file_is_a_data_error(capsys, tmp_path):
    code, out, err = run_align(capsys, "--pair", str(tmp_path / "absent.json"))
    assert code == 3
    assert out == ""
    assert err.startswith("data error:")


@pytest.mark.parametrize("ext", ["json", "bin"])
def test_video_record_is_not_a_pair(capsys, tmp_path, ext):
    path = tmp_path / f"video.{ext}"
    save_item(LabeledVideo("v0", "walk", seq(CLIPS, "v0")), path)
    code, out, err = run_align(capsys, "--pair", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("data error:")


def _damaged_copies(data: bytes):
    """Every proper prefix of ``data``, then ``data`` with junk appended."""
    for cut in range(len(data)):
        yield data[:cut]
    for junk in (b"\x00", b"junk"):
        yield data + junk


@pytest.mark.parametrize("kind", ["pair", "video", "checkpoint"])
def test_truncated_or_extended_binary_is_a_data_error(capsys, tmp_path, kind):
    clips = seq(CLIPS, "v0")
    if kind == "pair":
        target = tmp_path / "toy.bin"
        save_item(make_pair(CAPTIONS, CLIPS, SEGMENTS, pid="toy"), target)
        argv = ["align", "--pair", str(target)]
    elif kind == "video":
        videos = [LabeledVideo(f"v{i}", label, clips) for i, label in enumerate(["walk", "walk", "run", "run"])]
        save_dataset(tmp_path / "videos", [(v, "novel") for v in videos], kind="videos", fmt="bin")
        target = tmp_path / "videos" / "videos" / "v0.bin"
        argv = ["eval", "fewshot", "--data", str(tmp_path / "videos"), "--way", "2", "--queries", "1", "--episodes", "1"]
    else:
        save_dataset(tmp_path / "pairs", [(make_pair(CAPTIONS, CLIPS, SEGMENTS), "test")], kind="pairs")
        target = tmp_path / "model.ckpt"
        save_checkpoint(ProjectionModel.identity(3), target)
        argv = ["eval", "localize", "--data", str(tmp_path / "pairs"), "--model", str(target)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    intact = target.read_bytes()
    for damaged in _damaged_copies(intact):
        target.write_bytes(damaged)
        assert cli.main(argv) == 3, f"{len(damaged)} of {len(intact)} bytes"
        assert capsys.readouterr().err.startswith("data error:")


GOOD_HEADER = {"kind": "pair", "id": "g", "dim": 3, "segments": [[0, 0, 2]], "shapes": [[1, 3], [2, 3]]}


@pytest.mark.parametrize("change", [
    {"shapes": None}, {"shapes": 5}, {"shapes": [[-1, 3], [2, 3]]}, {"shapes": [[1, 3]]},
    {"shapes": [[1, 3], [2, "3"]]}, {"segments": 5}, {"segments": [[0, "a", 2]]}, {"id": None},
    {"dim": 5}, {"dim": "x"}, {"dim": None},
])
def test_garbled_binary_header_is_a_data_error(capsys, tmp_path, change):
    meta = {k: v for k, v in {**GOOD_HEADER, **change}.items() if v is not None}
    header = json.dumps(meta).encode("utf-8")
    path = tmp_path / "garbled.bin"
    path.write_bytes(b"TALNBIN1" + struct.pack("<I", len(header)) + header + np.ones(9, "<f4").tobytes())
    code, out, err = run_align(capsys, "--pair", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("data error:")


@pytest.mark.parametrize("dim", [5, "x", None])
def test_binary_video_that_disagrees_with_its_dim_is_a_data_error(capsys, tmp_path, dim):
    videos = [LabeledVideo(f"v{i}", label, seq(CLIPS, f"v{i}")) for i, label in enumerate(["walk", "walk", "run", "run"])]
    save_dataset(tmp_path, [(v, "novel") for v in videos], kind="videos", fmt="bin")
    argv = ["eval", "fewshot", "--data", str(tmp_path), "--way", "2", "--queries", "1", "--episodes", "1"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    meta = {k: v for k, v in {"kind": "video", "id": "v0", "label": "walk", "dim": dim, "shapes": [[5, 3]]}.items()
            if v is not None}
    (tmp_path / "videos" / "v0.bin").write_bytes(_container(json.dumps(meta), CLIPS))
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith("data error:")


@pytest.mark.parametrize("change", [{"segments": 5}, {"segments": None}, {"segments": "0-2"}, {"dim": [3]}, 5])
def test_malformed_json_pair_is_a_data_error(capsys, tmp_path, change):
    path = tmp_path / "toy.json"
    save_item(make_pair(CAPTIONS, CLIPS, SEGMENTS, pid="toy"), path)
    assert run_align(capsys, "--pair", str(path))[0] == 0
    record = {**json.loads(path.read_text()), **change} if isinstance(change, dict) else change
    path.write_text(json.dumps(record))
    code, out, err = run_align(capsys, "--pair", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("data error:")


@pytest.mark.parametrize("change", [
    {"entries": [5]},
    {"entries": [{"id": "toy", "split": "test"}]},
    {"entries": [{"id": "toy", "path": 7, "split": "test"}]},
    {"entries": [{"id": "toy", "path": "pairs/toy.json", "split": ["test"]}]},
    {"entries": {"path": "pairs/toy.json"}},
    {"kind": "clips"},
    {"format_version": [1]},
    {"dim": [3]},
    5,
])
def test_malformed_manifest_is_a_data_error(capsys, tmp_path, change):
    save_dataset(tmp_path, [(make_pair(CAPTIONS, CLIPS, SEGMENTS, pid="toy"), "test")], kind="pairs")
    assert cli.main(["eval", "localize", "--data", str(tmp_path)]) == 0
    capsys.readouterr()
    manifest = tmp_path / "manifest.json"
    record = {**json.loads(manifest.read_text()), **change} if isinstance(change, dict) else change
    manifest.write_text(json.dumps(record))
    assert cli.main(["eval", "localize", "--data", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("data error:")


def _container(header: str, *blocks) -> bytes:
    """A .bin record: magic, header length, JSON header, float32 blocks."""
    body = b"".join(np.asarray(block, "<f4").tobytes() for block in blocks)
    return b"TALNBIN1" + struct.pack("<I", len(header)) + header.encode("utf-8") + body


_PAIR_ROWS = (
    '"captions": [{"id": "toy-c0", "embedding": [1, 0, 0]}, {"id": "toy-c1", "embedding": [0, 1, 0]}, '
    '{"id": "toy-c2", "embedding": [0, 0, 1]}], "clips": [{"embedding": [0.5, 0.5, 1]}, {"embedding": [1, 0.25, 0]}, '
    '{"embedding": [0, 1, 0.5]}, {"embedding": [0.25, 0, 1]}, {"embedding": [1, 1, 1]}], '
    '"segments": [{"caption_index": 0, "start": 1, "end": 2}, {"caption_index": 1, "start": 2, "end": 3}, '
    '{"caption_index": 2, "start": 3, "end": 4}]'
)
_VIDEO_ROWS = (
    '"frames": [{"embedding": [0.5, 0.5, 1]}, {"embedding": [1, 0.25, 0]}, {"embedding": [0, 1, 0.5]}, '
    '{"embedding": [0.25, 0, 1]}, {"embedding": [1, 1, 1]}]'
)

# The bytes save_dataset writes for the toy pair and the toy video: every
# record file and the manifest, by path under the dataset directory.
PINNED_FILES = {
    ("pairs", "json"): {
        "pairs/toy.json": ('{"id": "toy", "dim": 3, ' + _PAIR_ROWS + "}\n").encode("utf-8"),
    },
    ("pairs", "bin"): {
        "pairs/toy.bin": _container(
            '{"dim": 3, "id": "toy", "kind": "pair", "segments": [[0, 1, 2], [1, 2, 3], [2, 3, 4]], '
            '"shapes": [[3, 3], [5, 3]]}', CAPTIONS, CLIPS),
    },
    ("videos", "json"): {
        "videos/v0.json": ('{"id": "v0", "label": "walk", "dim": 3, ' + _VIDEO_ROWS + "}\n").encode("utf-8"),
    },
    ("videos", "bin"): {
        "videos/v0.bin": _container('{"dim": 3, "id": "v0", "kind": "video", "label": "walk", "shapes": [[5, 3]]}', CLIPS),
    },
}


@pytest.mark.parametrize("kind, fmt", list(PINNED_FILES))
def test_record_files_are_pinned(tmp_path, kind, fmt):
    if kind == "pairs":
        item, split = make_pair(CAPTIONS, CLIPS, SEGMENTS, pid="toy"), "test"
    else:
        item, split = LabeledVideo("v0", "walk", seq(CLIPS, "v0")), "novel"
    save_dataset(tmp_path, [(item, split)], kind=kind, fmt=fmt)
    (rel, record), = PINNED_FILES[(kind, fmt)].items()
    manifest = (f'{{"format_version": 1, "kind": "{kind}", "dim": 3, '
                f'"entries": [{{"id": "{item.id}", "path": "{rel}", "split": "{split}"}}]}}\n')
    written = {str(p.relative_to(tmp_path)): p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert written == {"manifest.json": manifest.encode("utf-8"), rel: record}

    _, by_split = load_dataset(tmp_path)
    (loaded,), = by_split.values()
    assert list(by_split) == [split] and loaded.id == item.id
    if kind == "pairs":
        assert loaded.segments == item.segments
        np.testing.assert_array_equal(loaded.anchor.units, CAPTIONS)
        np.testing.assert_array_equal(loaded.positive.units, CLIPS)
    else:
        assert loaded.label == "walk"
        np.testing.assert_array_equal(loaded.frames.units, CLIPS)


@pytest.fixture
def train_data(tmp_path):
    """A small video-text dataset under tmp_path/data, the only entry of tmp_path."""
    train, test, _ = gen_corpus(SynthConfig(n_tasks=4, videos_per_task=3, seed=1))
    save_dataset(tmp_path / "data", [(p, "train") for p in train] + [(p, "test") for p in test], kind="pairs")
    return str(tmp_path / "data")


@pytest.mark.parametrize("lr", ["1e308", "1e200"])
def test_diverging_training_is_a_numerical_failure(capsys, tmp_path, train_data, lr):
    code = cli.main(["train", "--data", train_data, "--lr", lr, "--epochs", "3", "--out", str(tmp_path / "model.ckpt")])
    assert code == 4
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


@pytest.mark.parametrize("flag, value", [
    ("--tau", "nan"), ("--tau", "inf"), ("--lr", "nan"), ("--lr", "inf"),
    ("--w-unit", "nan"), ("--w-unit", "inf"), ("--w-seq", "nan"), ("--w-seq", "inf"),
])
def test_non_finite_hyperparameter_is_a_data_error(capsys, tmp_path, train_data, flag, value):
    code = cli.main(["train", "--data", train_data, flag, value, "--epochs", "2", "--out", str(tmp_path / "model.ckpt")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "must be finite" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


def test_checkpoint_with_an_infinite_block_is_a_data_error(capsys, tmp_path):
    save_dataset(tmp_path / "pairs", [(make_pair(CAPTIONS, CLIPS, SEGMENTS), "test")], kind="pairs")
    target = tmp_path / "model.ckpt"
    save_checkpoint(ProjectionModel.identity(3), target)
    argv = ["eval", "localize", "--data", str(tmp_path / "pairs"), "--model", str(target)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    data = target.read_bytes()
    # The last block is anchor.b_out: three float32 zeros.
    target.write_bytes(data[:-4] + np.float32(np.inf).tobytes())
    assert cli.main(argv) == 3
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("protocol, kind, split", [
    ("fewshot", "pairs", "test"),
    ("retrieval-full", "videos", "novel"),
    ("retrieval-clip", "videos", "novel"),
    ("localize", "videos", "novel"),
])
def test_protocol_on_the_wrong_dataset_kind_is_a_data_error(capsys, tmp_path, protocol, kind, split):
    if kind == "pairs":
        items = [(make_pair(CAPTIONS, CLIPS, SEGMENTS, pid=f"p{i}"), split) for i in range(2)]
    else:
        items = [(LabeledVideo(f"v{i}", "walk", seq(CLIPS, f"v{i}")), split) for i in range(2)]
    save_dataset(tmp_path, items, kind=kind)
    assert cli.main(["eval", protocol, "--data", str(tmp_path), "--split", split]) == 3
    expected = "videos" if kind == "pairs" else "pairs"
    assert capsys.readouterr().err == f"data error: eval {protocol} needs a {expected} dataset, got {kind}\n"


def _toy_pairs(root, split="test"):
    """Two canonical toy pairs, p0 and p1, as a JSON pairs dataset under ``root``."""
    save_dataset(root, [(make_pair(CAPTIONS, CLIPS, SEGMENTS, pid=f"p{i}"), split) for i in range(2)], kind="pairs")
    return str(root)


def _edit_record(path, **fields):
    path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))


@pytest.mark.parametrize("protocol", ["retrieval-full", "retrieval-clip", "localize"])
@pytest.mark.parametrize("segments", [
    [[0, 1, 3], [1, 2, 4], [2, 4, 5]],  # overlapping
    [[0, 1, 2], [2, 3, 4]],  # caption 1 has no segment
    [[0, 1, 2], [2, 2, 3], [1, 3, 4]],  # caption_index out of caption order
])
def test_non_canonical_pair_is_a_data_error(capsys, tmp_path, protocol, segments):
    data = _toy_pairs(tmp_path)
    argv = ["eval", protocol, "--data", data] + (["--ks", "1"] if protocol.startswith("retrieval") else [])
    assert cli.main(argv) == 0
    capsys.readouterr()
    _edit_record(tmp_path / "pairs" / "p1.json", segments=[dict(zip(("caption_index", "start", "end"), s)) for s in segments])
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith("data error: pair 'p1': ")


@pytest.mark.parametrize("command", [["train", "--epochs", "1", "--negatives", "2"], ["eval", "localize"]])
def test_duplicate_item_id_is_a_data_error(capsys, tmp_path, command):
    data = _toy_pairs(tmp_path / "data", split="train" if command[0] == "train" else "test")
    argv = [*command, "--data", data] + (["--out", str(tmp_path / "model.ckpt")] if command[0] == "train" else [])
    assert cli.main(argv) == 0
    capsys.readouterr()
    _edit_record(tmp_path / "data" / "pairs" / "p1.json", id="p0")
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == "data error: pairs/p1.json: id 'p0' is taken by an earlier entry\n"


def test_save_dataset_refuses_duplicate_ids(tmp_path):
    pair = make_pair(CAPTIONS, CLIPS, SEGMENTS)
    with pytest.raises(DataError, match="distinct ids"):
        save_dataset(tmp_path / "data", [(pair, "train"), (pair, "test")], kind="pairs")
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("kind, mode, dim", [("pairs", "video-text", 64), ("videos", "video-only", 8)])
def test_train_mode_follows_the_dataset_kind(capsys, tmp_path, train_data, kind, mode, dim):
    data = train_data
    if kind == "videos":
        videos, meta = gen_fewshot_corpus(FewshotSynthConfig(n_classes=4, videos_per_class=3, steps_per_class=3, dim=8, seed=2))
        base = set(meta["base_labels"])
        save_dataset(tmp_path / "videos", [(v, "base" if v.label in base else "novel") for v in videos], kind="videos")
        data = str(tmp_path / "videos")
    out = tmp_path / "model.ckpt"
    assert cli.main(["train", "--data", data, "--epochs", "2", "--negatives", "4", "--out", str(out)]) == 0
    report = json.loads((tmp_path / "model.ckpt.report.json").read_text())
    assert report["mode"] == mode
    assert len(report["loss_curve"]) == 2 and all(np.isfinite(report["loss_curve"]))
    assert load_checkpoint(out).in_dim == dim


@pytest.mark.parametrize("kind, split, needed", [("pairs", "base", "train"), ("videos", "train", "base")])
def test_train_without_the_kinds_training_split_is_a_data_error(capsys, tmp_path, kind, split, needed):
    if kind == "pairs":
        _toy_pairs(tmp_path / "data", split=split)
    else:
        save_dataset(tmp_path / "data", [(LabeledVideo(f"v{i}", "walk", seq(CLIPS, f"v{i}")), split) for i in range(2)], kind=kind)
    assert cli.main(["train", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "model.ckpt")]) == 3
    assert capsys.readouterr().err == f"data error: no training items: a {kind} dataset trains on split {needed!r}\n"


def test_train_takes_no_mode_flag(capsys, tmp_path, train_data):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--data", train_data, "--mode", "video-only", "--out", str(tmp_path / "model.ckpt")])
    assert exc.value.code == 2


@pytest.mark.parametrize("config", ["[1, 2]", '"abc"'])
def test_synth_config_that_is_not_an_object_is_a_data_error(capsys, tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(config)
    assert cli.main(["synth", "--config", str(path), "--out", str(tmp_path / "data")]) == 3
    assert "config must be a JSON object" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


PINNED_PAIRS = {"n_tasks": 12, "videos_per_task": 5, "dim": 16, "proto_subspace_dim": 6, "caption_noise": 0.3,
                "clip_noise": 0.25, "confuser_prob": 0.4, "seed": 3}
PINNED_VIDEOS = {"kind": "fewshot", "n_classes": 8, "videos_per_class": 8, "dim": 12, "frame_noise": 0.3, "seed": 3}

# The --out-csv rows (after the header) of each protocol on the two datasets
# above: a change that moves any evaluation result fails here.
PINNED_CSV = {
    ("retrieval-full", "dtw"): (
        "retrieval-full,dtw,1,0.2\n"
        "retrieval-full,dtw,5,0.716666667\n"
        "retrieval-full,dtw,10,0.966666667\n"
        "retrieval-full.n_queries,dtw,0,60\n"
    ),
    ("retrieval-full", "otam"): (
        "retrieval-full,otam,1,0.0333333333\n"
        "retrieval-full,otam,5,0.283333333\n"
        "retrieval-full,otam,10,0.516666667\n"
        "retrieval-full.n_queries,otam,0,60\n"
    ),
    ("retrieval-full", "capavg"): (
        "retrieval-full,capavg,1,0.1\n"
        "retrieval-full,capavg,5,0.4\n"
        "retrieval-full,capavg,10,0.833333333\n"
        "retrieval-full.n_queries,capavg,0,60\n"
    ),
    ("retrieval-full", "dtw+capavg"): (
        "retrieval-full,dtw+capavg,1,0.183333333\n"
        "retrieval-full,dtw+capavg,5,0.45\n"
        "retrieval-full,dtw+capavg,10,0.933333333\n"
        "retrieval-full.n_queries,dtw+capavg,0,60\n"
    ),
    ("retrieval-full", "otam+capavg"): (
        "retrieval-full,otam+capavg,1,0.0166666667\n"
        "retrieval-full,otam+capavg,5,0.35\n"
        "retrieval-full,otam+capavg,10,0.6\n"
        "retrieval-full.n_queries,otam+capavg,0,60\n"
    ),
    ("retrieval-clip", None): (
        "retrieval-clip,cosine,1,0.0466666667\n"
        "retrieval-clip,cosine,5,0.166666667\n"
        "retrieval-clip,cosine,10,0.296666667\n"
        "retrieval-clip.n_queries,cosine,0,300\n"
    ),
    ("localize", None): (
        "localize,cosine,1,0.593333333\n"
        "localize.n_videos,cosine,0,60\n"
    ),
    ("fewshot", "dtw"): (
        "fewshot-3way-1shot.accuracy,dtw,0,0.904166667\n"
        "fewshot-3way-1shot.ci95,dtw,0,0.0215545884\n"
        "fewshot-3way-1shot.episodes,dtw,0,60\n"
    ),
    ("fewshot", "otam"): (
        "fewshot-3way-1shot.accuracy,otam,0,0.725\n"
        "fewshot-3way-1shot.ci95,otam,0,0.0293876936\n"
        "fewshot-3way-1shot.episodes,otam,0,60\n"
    ),
    ("fewshot", "bag"): (
        "fewshot-3way-1shot.accuracy,bag,0,0.316666667\n"
        "fewshot-3way-1shot.ci95,bag,0,0.031492065\n"
        "fewshot-3way-1shot.episodes,bag,0,60\n"
    ),
}


@pytest.fixture(scope="module")
def pinned_data(tmp_path_factory):
    """The two pinned datasets, written through `tempalign synth`: name -> directory."""
    root = tmp_path_factory.mktemp("pinned")
    dirs = {}
    for name, config in (("pairs", PINNED_PAIRS), ("videos", PINNED_VIDEOS)):
        (root / f"{name}.json").write_text(json.dumps(config))
        dirs[name] = str(root / name)
        assert cli.main(["synth", "--config", str(root / f"{name}.json"), "--out", dirs[name]]) == 0
    return dirs


@pytest.mark.parametrize("protocol, measure", list(PINNED_CSV))
def test_eval_csv_is_pinned(capsys, tmp_path, pinned_data, protocol, measure):
    if protocol == "fewshot":
        argv = ["--data", pinned_data["videos"], "--way", "3", "--queries", "4", "--episodes", "60"]
    else:
        argv = ["--data", pinned_data["pairs"], "--split", "all"]
    if measure is not None:
        argv += ["--measure", measure]
    out = tmp_path / "report.csv"
    assert cli.main(["eval", protocol, *argv, "--out-csv", str(out)]) == 0
    assert out.read_bytes() == ("task,measure,k,value\n" + PINNED_CSV[(protocol, measure)]).encode("utf-8")


@pytest.mark.parametrize("protocol", ["retrieval-full", "retrieval-clip"])
def test_dump_writes_one_rank_per_query(capsys, tmp_path, pinned_data, protocol):
    csv = tmp_path / "report.csv"
    argv = ["eval", protocol, "--data", pinned_data["pairs"], "--split", "all", "--ks", "1", "--out-csv", str(csv)]
    assert cli.main(argv) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]
    dump = tmp_path / "ranks.jsonl"
    assert cli.main([*argv, "--dump", str(dump)]) == 0
    recall_1, n_queries = (float(line.split(",")[-1]) for line in csv.read_text().splitlines()[1:])
    ranks = np.array([json.loads(line)["rank"] for line in dump.read_text().splitlines()])
    assert len(ranks) == n_queries
    assert np.mean(ranks == 1) == pytest.approx(recall_1)
