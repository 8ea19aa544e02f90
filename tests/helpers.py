"""Shared platform builders for the test suite.

Every plane's test module used to hand-roll the same four lines —
construct ``Oparaca(PlatformConfig(...))``, register handler images,
deploy a package — with copy-paste drift between them.  This module is
the one home for that plumbing:

* :data:`LISTING1_YAML` / :func:`register_image_handlers` — the paper's
  Listing 1 package and its backing handlers (re-exported by
  ``conftest`` for fixtures).
* :func:`make_platform` — build + register + deploy in one call.
* :func:`listing1_platform` — a platform with Listing 1 deployed.
* :func:`run_async` — ``asyncio.run`` for the real-transport suites,
  failing the test on anything the loop's exception handler received;
  :func:`wait_for` — their bounded poll.
"""

from __future__ import annotations

import asyncio
import gc
from typing import Any, Callable, Coroutine

from repro.platform.oparaca import Oparaca, PlatformConfig

#: The paper's Listing 1, extended with structured keys and a macro so
#: every feature has coverage.
LISTING1_YAML = """
name: image-app
classes:
  - name: Image
    qos:
      throughput: 100
    constraint:
      persistent: true
    keySpecs:
      - name: image
        type: FILE
      - name: width
        type: INT
        default: 1024
      - name: format
        type: STR
        default: png
    functions:
      - name: resize
        image: img/resize
      - name: changeFormat
        image: img/change-format
      - name: thumbnail
        type: MACRO
        dataflow:
          steps:
            - id: r
              function: resize
              args: { width: "${input.width}" }
            - id: f
              function: changeFormat
              inputs: [r]
              args: { format: webp }
          output: f
  - name: LabelledImage
    parent: Image
    keySpecs:
      - name: labels
        type: JSON
        default: []
    functions:
      - name: detectObject
        image: img/detect-object
"""

#: image name -> (handler, service_time_s), the shape make_platform takes.
Handlers = dict[str, tuple[Callable[..., Any], float]]


def register_image_handlers(platform: Oparaca) -> None:
    """The handlers backing LISTING1_YAML."""

    @platform.function("img/resize", service_time_s=0.004)
    def resize(ctx):
        ctx.state["width"] = int(ctx.payload["width"])
        return {"width": ctx.state["width"]}

    @platform.function("img/change-format", service_time_s=0.002)
    def change_format(ctx):
        ctx.state["format"] = str(ctx.payload["format"])
        return {"format": ctx.state["format"]}

    @platform.function("img/detect-object", service_time_s=0.02)
    def detect(ctx):
        labels = ["cat"] if ctx.state.get("width", 0) < 512 else ["cat", "laptop"]
        ctx.state["labels"] = labels
        return {"labels": labels}


def make_platform(
    package: str | None = None,
    handlers: Handlers | None = None,
    *,
    nodes: int = 3,
    **config_kwargs: Any,
) -> Oparaca:
    """Build a platform, register ``handlers``, deploy ``package``.

    ``config_kwargs`` pass straight through to :class:`PlatformConfig`,
    so plane configs read naturally at the call site::

        make_platform(QOS_YAML, {"t/hot": (handler, 0.001)},
                      nodes=2, qos=QosConfig(enabled=True))
    """
    platform = Oparaca(PlatformConfig(nodes=nodes, **config_kwargs))
    for image, (handler, service_time_s) in (handlers or {}).items():
        platform.register_image(image, handler, service_time_s)
    if package is not None:
        platform.deploy(package)
    return platform


def listing1_platform(*, nodes: int = 3, **config_kwargs: Any) -> Oparaca:
    """A platform with Listing 1 deployed and its handlers registered."""
    platform = make_platform(nodes=nodes, **config_kwargs)
    register_image_handlers(platform)
    platform.deploy(LISTING1_YAML)
    return platform


async def wait_for(
    predicate: Callable[[], Any], timeout_s: float = 5.0, message: str = "condition"
) -> None:
    """Poll ``predicate`` on the running loop until it holds; an
    ``AssertionError`` naming ``message`` after ``timeout_s``."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while loop.time() < deadline:
        if predicate():
            return
        await asyncio.sleep(0.005)
    raise AssertionError(f"timed out waiting for {message}")


def run_async(main: Coroutine[Any, Any, Any]) -> Any:
    """``asyncio.run(main)``, except that what reaches the loop's
    exception handler — an exception escaping a protocol callback or a
    connection task, a task destroyed with its exception unread — fails
    the test instead of becoming a log line nobody reads."""
    reported: list[dict[str, Any]] = []

    async def guarded() -> Any:
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: reported.append(context)
        )
        return await main

    result = asyncio.run(guarded())
    gc.collect()  # an unread task exception is reported when the task is freed
    assert not reported, f"the event loop's exception handler received: {reported}"
    return result
