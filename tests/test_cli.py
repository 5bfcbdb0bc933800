import numpy as np
import pytest

from conftest import make_pair
from tempalign import cli
from tempalign.core import EmbeddingSequence, LabeledVideo
from tempalign.io import save_pair, save_video

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
    save_video(LabeledVideo("v0", "walk", EmbeddingSequence("v0", np.asarray(CLIPS))), path)
    code, out, err = run_align(capsys, "--pair", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("data error:")
