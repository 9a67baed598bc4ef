import importlib
import pkgutil

import vextrace


def test_public_names_resolve():
    # a name left in __all__ after its definition is deleted breaks star imports
    for info in pkgutil.iter_modules(vextrace.__path__):
        module = importlib.import_module(f"vextrace.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], f"vextrace.{info.name}.__all__ names {missing}"
        exec(f"from vextrace.{info.name} import *", {})
    exec("from vextrace import *", {})
