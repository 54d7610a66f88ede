"""The public surface: every exported name resolves."""

import importlib
import pkgutil

import rct


def test_exports_resolve():
    names = ["rct"] + [f"rct.{m.name}"
                       for m in pkgutil.iter_modules(rct.__path__)]
    for name in names:
        mod = importlib.import_module(name)
        exported = getattr(mod, "__all__", [])
        assert len(set(exported)) == len(exported), name
        missing = [attr for attr in exported if not hasattr(mod, attr)]
        assert not missing, (name, missing)
