import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.certified and report.iterations == 5000


def readme_config_keys():
    """{subcommand: {key: raw default}} from the README's config-key bullets.

    A bullet names its subcommands in backticks before a colon, then lists
    ``key=value`` pairs in the first backtick span after it (or says none).
    """
    text = README.read_text()
    section = text[text.index("Config keys per subcommand"):text.index("## Numerical practice")]
    keys = {}
    for bullet in re.split(r"\n\* ", section)[1:]:
        bullet = " ".join(bullet.split())
        match = re.match(r"((?:`[^`]+`(?:, )?)+): (?:`([^`]*)`|none)", bullet)
        assert match, bullet
        pairs = dict(token.split("=", 1) for token in (match.group(2) or "").split())
        for command in re.findall(r"`([^`]+)`", match.group(1)):
            assert not set(keys.get(command, {})) & set(pairs), command
            keys.setdefault(command, {}).update(pairs)
    return keys


def test_config_key_list_matches_the_declared_settings():
    import click

    from riskconvex.cli import SETTINGS, cli
    from riskconvex.configfile import PARSERS

    commands = set()
    for name, command in cli.commands.items():
        if isinstance(command, click.Group):
            commands.update(f"{name} {sub}" for sub in command.commands)
        else:
            commands.add(name)
    assert set(SETTINGS) == commands
    documented = readme_config_keys()
    assert set(documented) == commands
    for command, settings in SETTINGS.items():
        assert set(documented[command]) == set(settings), command
        for key, (type_name, default) in settings.items():
            assert PARSERS[type_name](documented[command][key]) == default, (command, key)
