import sys

import pytest

from frameprompt.config import RunConfig, from_dict, load_config
from frameprompt.errors import ConfigError


def test_defaults():
    cfg = RunConfig()
    assert cfg.eta == 0.5
    assert cfg.gamma == 0.5
    assert cfg.inner_steps == 4
    assert cfg.probe_size == 1000
    assert cfg.warmup_epochs == 10
    assert cfg.pairs == 10000
    assert cfg.tau == "calibrate"
    assert cfg.epochs == 10
    assert cfg.lr == 0.1
    assert cfg.optimizer == "adam"
    assert cfg.momentum == 0.9


def test_empty_file_means_defaults(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text("")
    assert load_config(str(p)) == RunConfig()
    p2 = tmp_path / "blank.json"
    p2.write_text("  \n ")
    assert load_config(str(p2)) == RunConfig()
    p3 = tmp_path / "braces.json"
    p3.write_text("{}")
    assert load_config(str(p3)) == RunConfig()


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"learning_rate": 0.1}')
    with pytest.raises(ConfigError) as e:
        load_config(str(p))
    assert "learning_rate" in str(e.value)


def test_duplicate_key_rejected(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"lr": 0.1, "lr": 0.2}')
    with pytest.raises(ConfigError) as e:
        load_config(str(p))
    assert "duplicate" in str(e.value)


def test_parse_error_reports_line(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{\n"lr": 0.1,\n oops\n}')
    with pytest.raises(ConfigError) as e:
        load_config(str(p))
    assert "line 3" in str(e.value)
    p.write_text("[" * 100000 + "]" * 100000)  # nesting past the recursion limit
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_gamma_domain_is_open_interval():
    with pytest.raises(ConfigError):
        from_dict({"gamma": 0.0})
    with pytest.raises(ConfigError):
        from_dict({"gamma": 1.0})
    with pytest.raises(ConfigError):
        from_dict({"gamma": 1.5})
    assert from_dict({"gamma": 0.25}).gamma == 0.25


def test_tau_accepts_number_or_calibrate():
    assert from_dict({"tau": 2.5}).tau == 2.5
    assert from_dict({"tau": "calibrate"}).tau == "calibrate"
    with pytest.raises(ConfigError):
        from_dict({"tau": "auto"})
    with pytest.raises(ConfigError):
        from_dict({"tau": -1.0})


def test_type_checks():
    with pytest.raises(ConfigError):
        from_dict({"epochs": 2.5})
    with pytest.raises(ConfigError):
        from_dict({"epochs": True})
    with pytest.raises(ConfigError):
        from_dict({"optimizer": 3})
    with pytest.raises(ConfigError):
        from_dict({"meta_use_adam": "yes"})
    with pytest.raises(ConfigError):
        from_dict({"epochs": 0})
    with pytest.raises(ConfigError):
        from_dict({"split_fractions": [0.5, 0.5]})
    with pytest.raises(ConfigError):
        from_dict({"optimizer": "rmsprop"})
    assert from_dict({"max_clusters": None}).max_clusters is None
    assert from_dict({"max_clusters": 4}).max_clusters == 4


def test_snapshot_roundtrips_through_json():
    import json
    cfg = from_dict({"lr": 0.05, "epochs": 3})
    doc = json.loads(cfg.snapshot())
    assert doc["lr"] == 0.05
    assert doc["epochs"] == 3
    assert doc["gamma"] == 0.5
    restored = from_dict(doc)
    assert restored == cfg


def test_numbers_must_be_finite(tmp_path):
    # json literals the parser accepts: NaN, Infinity, 1e400 (parsed as inf)
    # and an integer too large for a float; booleans are not fractions
    huge = "1" + "0" * 400
    bad = ['{"split_fractions": ["a", 0, 0]}', '{"split_fractions": [null, 0.5, 0.5]}',
           '{"split_fractions": [true, false, false]}',
           '{"split_fractions": [NaN, 0.5, 0.5]}', '{"lr": %s}' % huge,
           '{"tau": %s}' % huge, '{"tau": null}', '{"tau": true}',
           '{"lr": 1%s}' % ("0" * 5000)]  # past the 4300 digits json parses
    for literal in ("NaN", "Infinity", "-Infinity", "1e400"):
        bad += ['{"lr": %s}' % literal, '{"momentum": %s}' % literal,
                '{"tau": %s}' % literal, '{"split_fractions": [%s, 0, 0]}' % literal]
    for i, text in enumerate(bad):
        p = tmp_path / f"c{i}.json"
        p.write_text(text)
        with pytest.raises(ConfigError):
            load_config(str(p))
    assert from_dict({"tau": 3, "lr": 1}) == from_dict({"tau": 3.0, "lr": 1.0})
    assert from_dict({"split_fractions": [1, 0, 0]}).split_fractions == (1.0, 0.0, 0.0)


def test_integers_no_array_extent_can_hold_rejected():
    big = sys.maxsize + 1
    for key in ("noise_count", "pairs", "epochs", "batch_size", "max_clusters"):
        with pytest.raises(ConfigError) as e:
            from_dict({key: big})
        assert key in str(e.value)
    assert from_dict({"noise_count": sys.maxsize}).noise_count == sys.maxsize
