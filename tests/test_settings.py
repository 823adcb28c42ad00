"""The environment knobs of ``repro.common.settings``, one row each."""

import pytest

from repro.common.settings import SETTINGS, setting

#: name -> (a valid value, what it parses to, malformed values)
CASES = {
    "REPRO_JOBS": ("3", 3, ["abc", "0"]),
    "REPRO_CACHE": ("No", False, ["on", "off"]),
    "REPRO_CACHE_DIR": ("elsewhere", "elsewhere", []),
    "REPRO_CACHE_MAX_MB": ("0.5", 0.5, ["abc", "0", "-1", "nan"]),
    "REPRO_CHECKPOINT_DIR": ("sidecar", "sidecar", []),
    "REPRO_KERNEL": ("FALSE", False, ["on", "off"]),
    "REPRO_EXACT": ("yes", True, ["on", "off"]),
    "REPRO_ROWS": ("4096", 4096, ["abc", "63"]),
}


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_setting_parses_or_names_the_variable(name, monkeypatch):
    valid, parsed, malformed = CASES[name]
    default = SETTINGS[name][1]
    monkeypatch.delenv(name, raising=False)
    assert setting(name) == default
    monkeypatch.setenv(name, "")
    assert setting(name) == default
    monkeypatch.setenv(name, valid)
    assert setting(name) == parsed
    for raw in malformed:
        monkeypatch.setenv(name, raw)
        with pytest.raises(ValueError, match=name):
            setting(name)
