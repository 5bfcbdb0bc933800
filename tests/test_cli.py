import json
import struct

import numpy as np
import pytest

from conftest import make_pair, seq
from tempalign import cli
from tempalign.core import LabeledVideo
from tempalign.io import save_dataset, save_pair, save_video
from tempalign.train import ProjectionModel, save_checkpoint

# Values exact in float32, so the .json and .bin copies print the same record.
CAPTIONS = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
CLIPS = [[0.5, 0.5, 1.0], [1.0, 0.25, 0.0], [0.0, 1.0, 0.5], [0.25, 0.0, 1.0], [1.0, 1.0, 1.0]]

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
    save_pair(make_pair(CAPTIONS, CLIPS, [(0, 1, 2), (1, 2, 3), (2, 3, 4)], pid="toy"), path)
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
    save_video(LabeledVideo("v0", "walk", seq(CLIPS, "v0")), path)
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
        save_pair(make_pair(CAPTIONS, CLIPS, [(0, 1, 2), (1, 2, 3), (2, 3, 4)], pid="toy"), target)
        argv = ["align", "--pair", str(target)]
    elif kind == "video":
        save_dataset(tmp_path / "videos", [(LabeledVideo("v0", "walk", clips), "novel")], kind="videos", fmt="bin")
        target = tmp_path / "videos" / "videos" / "v0.bin"
        argv = ["eval", "fewshot", "--data", str(tmp_path / "videos"), "--episodes", "1"]
    else:
        save_dataset(tmp_path / "pairs", [(make_pair(CAPTIONS, CLIPS, [(0, 1, 2)]), "test")], kind="pairs")
        target = tmp_path / "model.ckpt"
        save_checkpoint(ProjectionModel.identity(3), target)
        argv = ["eval", "localize", "--data", str(tmp_path / "pairs"), "--model", str(target)]
    intact = target.read_bytes()
    for damaged in _damaged_copies(intact):
        target.write_bytes(damaged)
        assert cli.main(argv) == 3, f"{len(damaged)} of {len(intact)} bytes"
        assert capsys.readouterr().err.startswith("data error:")


GOOD_HEADER = {"kind": "pair", "id": "g", "dim": 3, "segments": [[0, 0, 2]], "shapes": [[1, 3], [2, 3]]}


@pytest.mark.parametrize("change", [
    {"shapes": None}, {"shapes": 5}, {"shapes": [[-1, 3], [2, 3]]}, {"shapes": [[1, 3]]},
    {"shapes": [[1, 3], [2, "3"]]}, {"segments": 5}, {"segments": [[0, "a", 2]]}, {"id": None},
])
def test_garbled_binary_header_is_a_data_error(capsys, tmp_path, change):
    meta = {k: v for k, v in {**GOOD_HEADER, **change}.items() if v is not None}
    header = json.dumps(meta).encode("utf-8")
    path = tmp_path / "garbled.bin"
    path.write_bytes(b"TALNBIN1" + struct.pack("<I", len(header)) + header + np.ones(9, "<f4").tobytes())
    code, out, err = run_align(capsys, "--pair", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("data error:")
