import pytest

from riskconvex.configfile import load_config
from riskconvex.errors import ConfigError

SETTINGS = {"alpha": ("float", 1.0), "iters": ("int", 10), "name": ("str", ""),
            "on": ("bool", False), "widths": ("list[int]", [1, 2]),
            "scales": ("list[float]", [])}
DEFAULTS = {"alpha": 1.0, "iters": 10, "name": "", "on": False, "widths": [1, 2], "scales": []}


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_parses_all_types(tmp_path):
    path = write(tmp_path, """
# settings
alpha = 2.5
iters = 40
name = two-basin
on = true
widths = 1, 6, 1
scales = 0.5,0.25
""")
    cfg = load_config(path, SETTINGS)
    assert cfg == {"alpha": 2.5, "iters": 40, "name": "two-basin", "on": True,
                   "widths": [1, 6, 1], "scales": [0.5, 0.25]}


def test_unknown_key_is_error_with_line(tmp_path):
    path = write(tmp_path, "alpha = 1.0\nbogus = 3\n")
    with pytest.raises(ConfigError, match="line 2.*bogus"):
        load_config(path, SETTINGS)


def test_duplicate_key_rejected(tmp_path):
    path = write(tmp_path, "alpha = 1\nalpha = 2\n")
    with pytest.raises(ConfigError, match="twice"):
        load_config(path, SETTINGS)


def test_bad_value_names_line_and_type(tmp_path):
    path = write(tmp_path, "iters = many\n")
    with pytest.raises(ConfigError, match="line 1.*int"):
        load_config(path, SETTINGS)
    path = write(tmp_path, "on = maybe\n")
    with pytest.raises(ConfigError, match="bool"):
        load_config(path, SETTINGS)


def test_missing_equals_is_error(tmp_path):
    path = write(tmp_path, "alpha 1.0\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_config(path, SETTINGS)


def test_comments_and_blanks_ignored(tmp_path):
    path = write(tmp_path, "\n# only a comment\nalpha = 2.0  # inline\n\n")
    assert load_config(path, SETTINGS) == dict(DEFAULTS, alpha=2.0)


def test_load_config_merges_defaults(tmp_path):
    path = write(tmp_path, "alpha = 3.0\n")
    cfg = load_config(path, SETTINGS)
    assert cfg == dict(DEFAULTS, alpha=3.0)
    assert load_config(None, SETTINGS) == DEFAULTS


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "none.cfg", SETTINGS)
