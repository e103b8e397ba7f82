"""Every name the benchmark's traced run patches still exists in the
package, and unpatching puts back the original objects."""

import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import spans  # noqa: E402

from authfusion import catalog, cli, context, fusion, reliability, session, trust  # noqa: E402


def test_every_name_the_tracer_patches_resolves_and_is_restored():
    lib = SimpleNamespace(catalog=catalog, cli=cli, context=context, fusion=fusion,
                          reliability=reliability, session=session, trust=trust)
    tracer = spans.Tracer()
    try:
        # getattr on a renamed or dropped name raises here
        spans.instrument(tracer, lib)
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr).__wrapped__ is original
    finally:
        tracer.unpatch()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
