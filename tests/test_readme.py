"""The README's Python example runs, and its configuration block lists
every section, key and default of the schema."""
import configparser
import re
from pathlib import Path

from insens4.config import SCHEMA, default_config, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(lang):
    block, = re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.S)
    return block


def test_python_example_runs(capsys):
    exec(compile(_block("python"), str(README), "exec"), {})
    null, probe, semi = capsys.readouterr().out.splitlines()
    assert null.split()[0] == "True"  # verify_null(linear).passed


def test_ini_block_is_the_schema(tmp_path):
    text = _block("ini")
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    parser.read_string(text)
    assert {name: list(parser[name]) for name in parser.sections()} == \
        {name: list(keys) for name, keys in SCHEMA.items()}
    # omega0's default is empty, which the block shows as a placeholder
    assert parser["domains"]["omega0"] == "(empty)"
    path = tmp_path / "readme.ini"
    path.write_text(text.replace("(empty)", ""), encoding="utf-8")
    assert parse_config(path) == default_config()
