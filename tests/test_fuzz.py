"""Mutation and type-swap fuzzing of the document readers.

Each mutation test damages a valid document (replaces or deletes one to three
of its values, or the whole document) and reads it back, through the file
reader where there is one. A reader may reject the document only with a
``FruitGaugeError``; any other exception fails the test. The type-swap test
gives one value of a valid document a JSON type its field does not admit, and
the file reader must reject it with a ``BundleIOError``. Runs are derandomized
and write no example database, so they are repeatable.
"""

import copy
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fruitgauge.errors import BundleIOError, FruitGaugeError
from fruitgauge.evaluation import GroundTruthRecord
from fruitgauge.fileio import (
    Detection,
    DetectionFile,
    dump_json,
    intrinsics_to_dict,
    read_board_poses,
    read_camera_order,
    read_depth,
    read_detections,
    parsing,
    read_fused_choices,
    read_ground_truth_csv,
    read_intrinsics,
    read_pgm16,
    read_records,
    read_rig,
    read_scene,
    scene_from_dict,
    transform_to_dict,
    write_depth,
    write_detections,
    write_rig,
)
from fruitgauge.geometry import (
    CameraIntrinsics,
    DepthImage,
    Point3,
    RigCamera,
    RigidTransform,
    translation_transform,
)
from fruitgauge.maskops import BinaryMask, decode_rle, encode_rle
from fruitgauge.simulate import FruitSpec, QuadOccluder, SceneSpec

from conftest import record_dicts, scene_to_dict, truth_records
from test_fileio import RECORD, read_outcome, ref_read

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


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def damaged(draw, doc):
    """``doc`` with one to three values replaced or deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(VALUES)
            continue
        parent = _at(doc, path[:-1])
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
def test_read_camera_order(work, rig_doc, data):
    """The camera order reader fails only as ``read_rig`` fails, and where
    ``read_rig`` reads the rig, gives its camera ids."""
    dump_json(data.draw(damaged(rig_doc)), work / "rig" / "damaged.json")

    def outcome(read):
        try:
            return True, read(work / "rig" / "damaged.json")
        except FruitGaugeError as e:
            return False, (type(e), str(e))

    (order_read, order), (rig_read, rig) = outcome(read_camera_order), outcome(read_rig)
    if not order_read:
        assert (rig_read, rig) == (False, order)
    elif rig_read:
        assert order == tuple(cam.camera_id for cam in rig)


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


@FUZZ
@given(st.data())
def test_read_records_matches_the_row_reference(work, data):
    """The column reader accepts what the row reference accepts, with the same
    values, and otherwise fails with its error, naming the same entry and field."""
    dump_json(data.draw(damaged(RECORDS)), work / "records.json")
    assert read_outcome(read_records, work / "records.json") == \
        read_outcome(lambda path: ref_read(path, "records"), work / "records.json")


@FUZZ
@given(st.data())
def test_read_fused_choices_matches_the_row_reference(work, data):
    dump_json(data.draw(damaged(FUSED)), work / "fused.json")
    assert read_outcome(read_fused_choices, work / "fused.json") == \
        read_outcome(lambda path: ref_read(path, "fruits"), work / "fused.json")


def ref_read_ground_truth_csv(path):
    """``read_ground_truth_csv`` through ``csv.DictReader``, a ``GroundTruthRecord``
    per row, and no fruit_id in two rows."""
    with parsing(f"ground truth {path}"):
        rows = list(csv.DictReader(io.StringIO(path.read_bytes().decode(), newline="")))
    records, first_row = [], {}
    for i, row in enumerate(rows, 1):
        with parsing(f"ground-truth row {i} in {path}"):
            center = None
            if row.get("x_m") not in (None, ""):
                center = Point3(float(row["x_m"]), float(row["y_m"]), float(row["z_m"]))
            records.append(GroundTruthRecord(row["fruit_id"], float(row["height_mm"]),
                                             float(row["width_mm"]), center))
            if row["fruit_id"] in first_row:
                raise ValueError(f"fruit_id {row['fruit_id']!r} repeats row "
                                 f"{first_row[row['fruit_id']]}")
            first_row[row["fruit_id"]] = i
    return records


TRUTH_NAMES = ("fruit_id", "height_mm", "width_mm", "x_m", "y_m", "z_m", "note")
TRUTH_FIELDS = st.sampled_from(["", "40", "0.1", "-0.2", "nan", "0", "f0", '"4,7"'])


@FUZZ
@given(st.lists(st.sampled_from(TRUTH_NAMES), max_size=8),
       st.lists(st.lists(TRUTH_FIELDS, max_size=8), max_size=4))
@example(list(TRUTH_NAMES[:6]), [["f0", "40", "47"], ["f0", "40", "47", "0.1", "0", "0", "x"]])
@example(["fruit_id", "height_mm", "height_mm", "width_mm"], [["f0", "1", "40", "47"]])
@example(list(TRUTH_NAMES[:3]), [["f0", "40", "47"], ["f1", "40", "47"], ["f0", "nan", "47"]])
@example([], [])
def test_read_ground_truth_csv_matches_the_dict_reader_reference(work, header, rows):
    """Absent, repeated and extra columns, short, long and blank rows, bad
    values and repeated ids: the same records, or the same error naming the
    same row."""
    text = "".join(",".join(row) + "\n" for row in [header, *rows])
    (work / "truth.csv").write_text(text)

    def outcome(read):
        try:
            return read(work / "truth.csv")
        except FruitGaugeError as e:
            return type(e), str(e)

    assert outcome(lambda path: truth_records(read_ground_truth_csv(path))) == \
        outcome(ref_read_ground_truth_csv)


SCENE = scene_to_dict(SceneSpec(
    fruits=[FruitSpec("fruit00", Point3(0.0, 0.0, 0.6), np.array([0.02, 0.02, 0.02]))],
    occluders=[QuadOccluder(np.array([[0, 0, 0.3], [0.01, 0, 0.3], [0.01, 0.01, 0.3],
                                      [0, 0.01, 0.3]]))],
    rig=[RigCamera("middle", K, RigidTransform.identity())],
    sigma_at_1m=0.002, seed=4,
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
    dump_json(RECORDS, work / "valid_records.json")
    assert record_dicts(read_records(work / "valid_records.json")) == RECORDS["records"]
    dump_json(FUSED, work / "valid_fused.json")
    assert record_dicts(read_fused_choices(work / "valid_fused.json")) == [RECORD]
    assert scene_to_dict(scene_from_dict(SCENE)) == SCENE
    dump_json(POSES, work / "valid_poses.json")
    assert read_board_poses(work / "valid_poses.json")[0] == "middle"


# Fields that admit null, each with the one other JSON type it admits, and the
# int-only fields; a list's elements belong to the field that holds the list.
NULLABLE = {"fruit_id": str, "distortion": list, "anchor": str, "intrinsics_file": str,
            "depth_intrinsics_file": str, "depth_to_color": dict}
INT_ONLY = {"seed", "width", "height", "detection_index", "bbox", "counts", "size"}
# One strategy per JSON type; an int and a float are both a number.
KINDS = {
    str: st.text(alphabet="ab01.-", max_size=4),
    bool: st.booleans(),
    float: st.one_of(st.integers(-3, 70), st.floats()),
    list: st.lists(LEAVES, max_size=3),
    dict: st.dictionaries(st.text(alphabet="ab", max_size=2), LEAVES, max_size=3),
    type(None): st.none(),
}


def _kind(value):
    return float if type(value) is int else type(value)


@st.composite
def swapped(draw, doc):
    """``doc`` with one scalar value swapped for a JSON value of a type its field
    does not admit: another kind, or an integral float where only an int belongs."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from([p for p in _paths(doc) if p and not isinstance(
        _at(doc, p), (dict, list))]))
    parent, key = _at(doc, path[:-1]), path[-1]
    leaf, field = parent[key], [k for k in path if isinstance(k, str)][-1]
    admitted = {_kind(leaf), *([type(None), NULLABLE[key]] if key in NULLABLE else [])}
    swaps = [strategy for kind, strategy in KINDS.items() if kind not in admitted]
    if field in INT_ONLY:
        swaps.append(st.just(float(leaf)))
    parent[key] = draw(st.one_of(swaps))
    return doc


@pytest.fixture(scope="module")
def documents(work, detections_doc, rig_doc):
    """Each JSON document kind as ``(valid document, path, file reader)``."""
    k_distorted = CameraIntrinsics(32, 24, 30.0, 30.0, 16.0, 12.0, (0.1, -0.05, 0.001, 0, 0.01))
    write_depth(work / "swap_depth.pgm", DepthImage(np.full((2, 3), 600, np.uint16)))
    chosen = {key: value for key, value in RECORD.items() if key != "center_world_m"}
    return {
        "scene": (SCENE, work / "scene.json", read_scene),
        "rig": (rig_doc, work / "rig" / "swapped.json", read_rig),
        "intrinsics": (intrinsics_to_dict(k_distorted), work / "intrinsics.json",
                       read_intrinsics),
        "depth_sidecar": ({"depth_scale": 0.001}, work / "swap_depth.json",
                          lambda path: read_depth(path.with_suffix(".pgm"))),
        "detections": (detections_doc, work / "swapped_detections.json", read_detections),
        "board_poses": (POSES, work / "poses.json", read_board_poses),
        "records": (RECORDS, work / "records.json", read_records),
        # only the fields read_fused_choices reads: each fruit's center and chosen record
        "fused": ({"fruits": [{"center_world_m": [0.01, -0.02, 0.62], "chosen": chosen}]},
                  work / "fused.json", read_fused_choices),
    }


DOCUMENT_KINDS = ["scene", "rig", "intrinsics", "depth_sidecar", "detections", "board_poses",
                  "records", "fused"]


@pytest.mark.parametrize("kind", DOCUMENT_KINDS)
@FUZZ
@given(data=st.data())
def test_type_swap_is_a_bundle_io_error(documents, kind, data):
    doc, path, read = documents[kind]
    dump_json(data.draw(swapped(doc)), path)
    with pytest.raises(BundleIOError):
        read(path)


@pytest.mark.parametrize("kind", DOCUMENT_KINDS)
def test_unswapped_document_parses(documents, kind):
    """The type-swap fuzzing starts from valid documents."""
    doc, path, read = documents[kind]
    dump_json(doc, path)
    read(path)
