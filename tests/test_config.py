import json
import struct

import pytest

from conftest import make_norm
from harcnn.binio import FormatError
from harcnn.checkpoint import (
    CheckpointMeta,
    load_checkpoint,
    save_checkpoint,
)
from harcnn.cli import RunConfig, default_config_json, load_config, main
from harcnn.config import from_json, to_json
from harcnn.dataset import STREAM_NAMES
from harcnn.dsp import WelchConfig
from harcnn.model import DEFAULT_MODEL_SPEC, ConvLayerSpec, ModelSpec, init_model
from harcnn.train import TrainConfig

SMALL_SPEC = ModelSpec(convs=(ConvLayerSpec(4, 5, stride=2),), pool_widths=(3,), dense_units=8)


def update_meta(path, **changes):
    """Rewrite the JSON metadata of a saved checkpoint or stats file, keeping its records."""
    data = path.read_bytes()
    (meta_len,) = struct.unpack("<I", data[10:14])
    meta_bytes = json.dumps({**json.loads(data[14 : 14 + meta_len]), **changes}).encode()
    path.write_bytes(data[:10] + struct.pack("<I", len(meta_bytes)) + meta_bytes + data[14 + meta_len :])


class TestRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            RunConfig(),
            RunConfig(dataset_root="d", output_dir="o", strict_counts=False, subset=7,
                      welch=WelchConfig(32, 0, "rectangular"),
                      model=SMALL_SPEC, train=TrainConfig(epochs=2, learning_rate=0.5, seed=9)),
            TrainConfig(),
            DEFAULT_MODEL_SPEC,
            SMALL_SPEC,
            WelchConfig(),
            CheckpointMeta(DEFAULT_MODEL_SPEC, WelchConfig(), STREAM_NAMES, 12, 3),
            CheckpointMeta(SMALL_SPEC, WelchConfig(32, 16), STREAM_NAMES, 0, 1),
        ],
        ids=lambda v: type(v).__name__,
    )
    def test_from_json_inverts_to_json(self, value):
        encoded = to_json(value)
        assert json.loads(json.dumps(encoded)) == encoded  # plain JSON, tuples as lists
        assert from_json(type(value), encoded) == value

    def test_default_config_text_is_the_default_run_config(self):
        assert from_json(RunConfig, json.loads(default_config_json())) == RunConfig()


class TestFromJson:
    @pytest.mark.parametrize(
        "cls, value, message",
        [
            (int, True, "k must be an integer, got True"),
            (int, 2.0, "k must be an integer, got 2.0"),
            (float, False, "k must be a number, got False"),
            (float, "1", "k must be a number, got '1'"),
            (str, None, "k must be a string, got None"),
            (bool, 1, "k must be true or false, got 1"),
            (int | None, 1.5, "k must be an integer, got 1.5"),
            (tuple[int, ...], (1, 2), "k must be a list, got (1, 2)"),
            (tuple[int, ...], [1, "2"], "k.1 must be an integer, got '2'"),
            (WelchConfig, "x", "k must be an object, got 'x'"),
        ],
    )
    def test_wrong_type_names_the_path(self, cls, value, message):
        with pytest.raises(ValueError) as info:
            from_json(cls, value, "k")
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "cls, value",
        [(int, 3), (float, 3), (float, 0.5), (bool, False), (str, ""), (int | None, None)],
    )
    def test_accepted_values_are_returned_unchanged(self, cls, value):
        result = from_json(cls, value, "k")
        assert result == value and type(result) is type(value)

    def test_tuple_fields_come_back_as_tuples(self):
        spec = from_json(ModelSpec, to_json(DEFAULT_MODEL_SPEC))
        assert type(spec.convs) is tuple and type(spec.pool_widths) is tuple


class TestCheckpointMeta:
    """Checkpoint metadata is parsed by the same schema: nothing is coerced."""

    def saved(self, tmp_path, **changes):
        path = tmp_path / "model.bin"
        save_checkpoint(path, init_model(seed=1, norm=make_norm()), WelchConfig(), epoch=2)
        update_meta(path, **changes)
        return path

    def test_saved_metadata_parses(self, tmp_path):
        _, _, meta = load_checkpoint(self.saved(tmp_path))
        info = from_json(CheckpointMeta, meta)
        assert info.stream_order == STREAM_NAMES and info.epoch == 2 and info.seed == 1

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"freq_bins": 65.9}, "metadata has unknown key 'freq_bins'"),
            ({"seed": "12"}, "metadata.seed must be an integer, got '12'"),
            ({"epoch": "x"}, "metadata.epoch must be an integer, got 'x'"),
            ({"extra": 1}, "metadata has unknown key 'extra'"),
            ({"welch": {"segment_len": 64}}, "metadata.welch lacks key 'overlap'"),
            ({"welch": {"segment_len": 6, "overlap": 0, "window_kind": "hamming"}},
             "metadata.welch: segment_len must be a power of two >= 2, got 6"),
        ],
    )
    def test_wrong_value_is_one_checkpoint_error(self, tmp_path, changes, message):
        path = self.saved(tmp_path, **changes)
        with pytest.raises(FormatError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: malformed checkpoint metadata: {message}"

    def test_reversed_stream_order_is_rejected(self, tmp_path, capsys):
        path = self.saved(tmp_path, stream_order=list(reversed(STREAM_NAMES)))
        with pytest.raises(FormatError, match="stream order") as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: ")

        capsys.readouterr()
        code = main(["evaluate", "--checkpoint", str(path), "--out", str(tmp_path / "eval")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}: checkpoint stream order ['total_acc_z', ")
        assert err.count("\n") == 1
        assert not (tmp_path / "eval" / "report.json").exists()


class TestDeeplyNestedJson:
    def test_config_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[" * 100_000)
        capsys.readouterr()
        assert main(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid config file {path}: ") and err.count("\n") == 1

    def test_checkpoint_metadata_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, init_model(seed=1, norm=make_norm()), WelchConfig(), epoch=0)
        data = path.read_bytes()
        (meta_len,) = struct.unpack("<I", data[10:14])
        meta_bytes = b"[" * 100_000
        path.write_bytes(data[:10] + struct.pack("<I", len(meta_bytes)) + meta_bytes + data[14 + meta_len :])
        with pytest.raises(FormatError, match="unreadable checkpoint metadata") as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: ")


def _key_paths(node, prefix=()):
    """Every (path to a container, key or index in it) pair of a parsed JSON document."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield prefix, key
        if isinstance(node[key], (dict, list)):
            yield from _key_paths(node[key], prefix + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def test_any_one_key_edit_loads_or_is_a_config_error(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=8), inner, max_size=3),
        max_leaves=6,
    )
    default = json.loads(default_config_json())
    key_paths = list(_key_paths(default))
    objects = [()] + [p + (k,) for p, k in key_paths if isinstance(_node(default, p + (k,)), dict)]

    @st.composite
    def edited_configs(draw):
        """The default config with one key replaced, deleted or added."""
        doc = json.loads(default_config_json())
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "add":
            parent, key = draw(st.sampled_from(objects)), draw(st.text(max_size=8))
        else:
            parent, key = draw(st.sampled_from(key_paths))
        target = _node(doc, parent)
        if op == "delete":
            del target[key]
        else:
            target[key] = draw(json_values)
        return doc

    path = tmp_path / "config.json"

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(doc=edited_configs())
    def check(doc):
        path.write_text(json.dumps(doc))
        try:
            cfg = load_config(path)
        except ValueError as exc:
            assert str(exc).startswith(f"invalid config file {path}: ")
            assert "\n" not in str(exc)
        else:
            assert to_json(cfg) == doc  # accepted values are taken as written

    check()
