"""Mutation fuzzing of the document readers.

Each test damages a valid document (replaces or deletes one to three of its
values, or the whole document) and reads it back, through the file reader
where there is one. A reader may reject the document only with a
``FruitGaugeError``; any other exception fails the test. Runs are
derandomized and write no example database, so they are repeatable.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fruitgauge.errors import FruitGaugeError
from fruitgauge.fileio import (
    Detection,
    DetectionFile,
    Record,
    dump_json,
    read_board_poses,
    read_detections,
    read_fused_choices,
    read_pgm16,
    read_records,
    read_rig,
    scene_from_dict,
    transform_to_dict,
    write_detections,
    write_rig,
)
from fruitgauge.geometry import (
    CameraIntrinsics,
    Point3,
    RigCamera,
    RigidTransform,
    translation_transform,
)
from fruitgauge.maskops import BinaryMask, decode_rle, encode_rle
from fruitgauge.simulate import FruitSpec, NoiseSpec, QuadOccluder, SceneSpec

from conftest import scene_to_dict
from test_fileio import RECORD

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None)

# Values a damaged document may hold: every JSON type, non-finite floats, ints
# that overflow int64, and short strings (no path separator, so a damaged file
# name stays inside the test's directory).
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 70), st.sampled_from([2**70, -2**70]),
    st.floats(), st.text(alphabet="ab01.-", max_size=4),
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(alphabet="ab", max_size=2), inner, max_size=3),
    max_leaves=6,
)

K = CameraIntrinsics(32, 24, 30.0, 30.0, 16.0, 12.0)
MASK = BinaryMask(np.pad(np.ones((5, 6), bool), ((3, 16), (4, 22))))  # 24x32


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


@st.composite
def damaged(draw, doc):
    """``doc`` with one to three values replaced or deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(VALUES)
        else:
            del parent[path[-1]]
    return doc


def only_fruitgauge_errors(read, *args):
    try:
        read(*args)
    except FruitGaugeError:
        pass


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(st.data())
def test_decode_rle(data):
    rle = encode_rle(MASK)
    only_fruitgauge_errors(decode_rle, data.draw(damaged(rle["counts"])),
                           data.draw(damaged(rle["size"])))


PGM_BYTES = b"P5\n3 2\n65535\n" + bytes(range(12))


@FUZZ
@given(st.integers(0, len(PGM_BYTES)), st.integers(0, 6), st.binary(max_size=6))
def test_read_pgm16(work, start, length, insert):
    path = work / "depth.pgm"
    path.write_bytes(PGM_BYTES[:start] + insert + PGM_BYTES[start + length:])
    only_fruitgauge_errors(read_pgm16, path)


@pytest.fixture(scope="module")
def detections_doc(work):
    write_detections(work / "valid_detections.json", DetectionFile("000", "top", [
        Detection("fully_ripened", 0.9, MASK.bbox(), MASK, fruit_id="fruit00"),
        Detection("green", 0.5, (0, 0, 32, 24), BinaryMask(np.ones((24, 32), bool))),
    ]))
    return json.loads((work / "valid_detections.json").read_text())


@pytest.fixture(scope="module")
def rig_doc(work):
    write_rig(work / "rig" / "valid.json", [
        RigCamera("top", K, translation_transform(0, -0.45, 0.15)),
        RigCamera("middle", K, RigidTransform.identity(), depth_intrinsics=K,
                  depth_to_color=translation_transform(0.015, 0, 0)),
    ])
    return json.loads((work / "rig" / "valid.json").read_text())


@FUZZ
@given(st.data())
def test_read_detections(work, detections_doc, data):
    dump_json(data.draw(damaged(detections_doc)), work / "detections.json")
    only_fruitgauge_errors(read_detections, work / "detections.json")


@FUZZ
@given(st.data())
def test_read_rig(work, rig_doc, data):
    dump_json(data.draw(damaged(rig_doc)), work / "rig" / "damaged.json")
    only_fruitgauge_errors(read_rig, work / "rig" / "damaged.json")


@FUZZ
@given(st.data())
def test_record_from_dict(data):
    only_fruitgauge_errors(Record.from_dict, data.draw(damaged(RECORD)))


RECORDS = {"records": [RECORD, {**RECORD, "camera_id": "middle", "fruit_id": "fruit00"}],
           "warnings": []}
FUSED = {"fruits": [{"center_world_m": [0.01, -0.02, 0.62], "radius_m": 0.0215, "n_views": 2,
                     "chosen": RECORDS["records"][0], "members": RECORDS["records"]}]}


@FUZZ
@given(st.data())
def test_read_records(work, data):
    dump_json(data.draw(damaged(RECORDS)), work / "records.json")
    only_fruitgauge_errors(read_records, work / "records.json")


@FUZZ
@given(st.data())
def test_read_fused_choices(work, data):
    dump_json(data.draw(damaged(FUSED)), work / "fused.json")
    only_fruitgauge_errors(read_fused_choices, work / "fused.json")


SCENE = scene_to_dict(SceneSpec(
    fruits=[FruitSpec("fruit00", Point3(0.0, 0.0, 0.6), np.array([0.02, 0.02, 0.02]))],
    occluders=[QuadOccluder(np.array([[0, 0, 0.3], [0.01, 0, 0.3], [0.01, 0.01, 0.3],
                                      [0, 0.01, 0.3]]))],
    rig=[RigCamera("middle", K, RigidTransform.identity())],
    noise=NoiseSpec(0.002), seed=4,
))


@FUZZ
@given(st.data())
def test_scene_from_dict(data):
    only_fruitgauge_errors(scene_from_dict, data.draw(damaged(SCENE)))


POSES = {
    "anchor": "middle",
    "observations": [{"poses": {"middle": transform_to_dict(RigidTransform.identity()),
                                "top": transform_to_dict(translation_transform(0, 0.4, 0.2))}}],
    "intrinsics_files": {"middle": "intrinsics/middle.json"},
}


@FUZZ
@given(st.data())
def test_read_board_poses(work, data):
    dump_json(data.draw(damaged(POSES)), work / "poses.json")
    only_fruitgauge_errors(read_board_poses, work / "poses.json")


def test_undamaged_documents_parse(work, detections_doc, rig_doc):
    """The fuzzing starts from valid documents."""
    (work / "valid.pgm").write_bytes(PGM_BYTES)
    assert read_pgm16(work / "valid.pgm").shape == (2, 3)
    assert np.array_equal(decode_rle(**encode_rle(MASK)).data, MASK.data)
    assert len(read_detections(work / "valid_detections.json").detections) == 2
    assert len(read_rig(work / "rig" / "valid.json")) == 2
    assert Record.from_dict(RECORD).to_dict() == RECORD
    dump_json(RECORDS, work / "valid_records.json")
    assert [r.to_dict() for r in read_records(work / "valid_records.json")] == RECORDS["records"]
    dump_json(FUSED, work / "valid_fused.json")
    assert [r.to_dict() for r in read_fused_choices(work / "valid_fused.json")] == [RECORD]
    assert scene_to_dict(scene_from_dict(SCENE)) == SCENE
    dump_json(POSES, work / "valid_poses.json")
    assert read_board_poses(work / "valid_poses.json")[0] == "middle"
