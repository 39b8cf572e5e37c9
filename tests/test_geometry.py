import json
from fractions import Fraction

import pytest

from tverberg.geometry import (
    HalfSpace,
    PointConfig,
    config_from_json,
    config_to_json,
    load_config,
    load_csv,
    make_config,
)
from tverberg.partition import Partition

F = Fraction


def test_halfspace_zero_normal_rejected():
    with pytest.raises(ValueError):
        HalfSpace((F(0), F(0)), F(1))


def test_config_validation():
    with pytest.raises(ValueError):
        PointConfig(dim=2, points=((F(1),),))
    with pytest.raises(ValueError):
        PointConfig(dim=1, points=((F(1),), (F(2),)), colors=(1,))


def test_json_round_trip():
    cfg = make_config([("1/2", "-3/7"), (2, 0)], colors=[1, 2])
    data = config_to_json(cfg)
    assert data["dimension"] == 2
    assert data["points"][0] == ["1/2", "-3/7"]
    assert config_from_json(data) == cfg


def test_json_malformed():
    with pytest.raises(ValueError):
        config_from_json({"points": [["1/1"]]})


@pytest.mark.parametrize(
    "data", [[1, 2], None, "points", 3], ids=["list", "none", "string", "number"]
)
@pytest.mark.parametrize(
    "from_json, what",
    [(config_from_json, "configuration"), (Partition.from_json, "partition")],
    ids=["configuration", "partition"],
)
def test_from_json_refuses_a_value_that_is_not_an_object(from_json, what, data):
    # In the CLI's words, not the interpreter's words for indexing a list
    # or None: library callers do not go through the file reader.
    with pytest.raises(ValueError) as exc:
        from_json(data)
    assert str(exc.value) == f"malformed {what} JSON: expected an object"


def test_file_round_trip(tmp_path):
    cfg = make_config([(1, 2), (3, 4)])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_json(cfg)))
    assert load_config(path) == cfg
    # extra keys (e.g. an embedded manifest) are ignored on load
    raw = json.loads(path.read_text())
    raw["manifest"] = {"anything": True}
    path.write_text(json.dumps(raw))
    assert load_config(path) == cfg


def test_csv_with_color_autodetect(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0.5,1/3,1\n-2,7,2\n")
    cfg = load_csv(path)
    assert cfg.dim == 2
    assert cfg.points[0] == (F(1, 2), F(1, 3))
    assert cfg.colors == (1, 2)


def test_csv_without_colors(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1,2\n3,4\n")
    cfg = load_csv(path)
    assert cfg.dim == 2 and cfg.colors is None


def test_color_classes_groups_in_index_order():
    cfg = make_config([(0,), (1,), (2,), (3,)], colors=[2, 1, 2, 1])
    assert cfg.color_classes() == {1: [1, 3], 2: [0, 2]}
