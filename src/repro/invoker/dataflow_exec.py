"""Dataflow (MACRO) execution.

Runs a :class:`~repro.model.dataflow.DataflowSpec` on behalf of one
object: steps are grouped into topological waves by their *data*
dependencies and each wave executes in parallel ("the platform handles
parallelism and data navigation in the background", §II-B).  Step
payloads are assembled by resolving ``${...}`` templates against the
macro input and earlier step outputs; a step targeting ``@<step-id>``
runs on the object *created* by that step.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.errors import DataflowError
from repro.invoker.request import InvocationRequest, InvocationResult
from repro.model.cls import FunctionBinding
from repro.model.dataflow import MACRO_INPUT, SELF_TARGET, DataflowStep, resolve_template
from repro.model.resolver import ResolvedClass
from repro.object.obj import ObjectRecord
from repro.sim.kernel import all_of

if TYPE_CHECKING:  # pragma: no cover - circular import guard
    from repro.invoker.engine import InvocationEngine

__all__ = ["DataflowExecutor"]


class DataflowExecutor:
    """Executes MACRO bindings through the invocation engine."""

    def __init__(self, engine: "InvocationEngine") -> None:
        self.engine = engine

    def execute(
        self,
        request: InvocationRequest,
        resolved: ResolvedClass,
        binding: FunctionBinding,
        record: ObjectRecord,
        trace_id: str | None = None,
        root=None,
    ) -> Generator[Any, Any, InvocationResult]:
        """Run the macro; resolves to the macro-level result."""
        spec = binding.function.dataflow
        trace_id = trace_id or request.trace_id or request.request_id
        outputs: dict[str, Any] = {"input": dict(request.payload)}
        created: dict[str, str] = {}
        for wave in spec.waves():
            processes = [
                self.engine.env.process(
                    self._run_step(request, resolved, step, outputs, created, trace_id, root)
                )
                for step in wave
            ]
            results: list[InvocationResult] = yield all_of(self.engine.env, processes)
            for step, result in zip(wave, results):
                if not result.ok:
                    return InvocationResult.failure(
                        request,
                        f"dataflow step {step.id!r} ({step.function}) failed: "
                        f"{result.error}",
                        resolved_cls=resolved.name,
                        error_type=result.error_type or "DataflowError",
                    )
                outputs[step.id] = dict(result.output)
                if result.created_object_id is not None:
                    created[step.id] = result.created_object_id
        final_output: dict[str, Any] = {}
        created_id = None
        if spec.output is not None:
            final_output = dict(outputs.get(spec.output, {}))
            created_id = created.get(spec.output)
        return InvocationResult(
            request_id=request.request_id,
            cls=resolved.name,
            object_id=record.id,
            fn_name=binding.name,
            ok=True,
            output=final_output,
            created_object_id=created_id,
        )

    def _run_step(
        self,
        request: InvocationRequest,
        resolved: ResolvedClass,
        step: DataflowStep,
        outputs: dict[str, Any],
        created: dict[str, str],
        trace_id: str | None = None,
        root=None,
    ) -> Generator[Any, Any, InvocationResult]:
        trace_id = trace_id or request.request_id
        step_span = self.engine.tracer.start(
            trace_id, f"step {step.id}", parent=root, function=step.function
        )
        if step.target == SELF_TARGET:
            target_id = request.object_id
        else:
            source = step.target[1:]
            target_id = created.get(source)
            if target_id is None:
                raise DataflowError(
                    f"step {step.id!r} targets @{source}, but step {source!r} "
                    "did not create an object (is its binding missing "
                    "output_class?)"
                )
        payload: dict[str, Any] = {
            key: resolve_template(template, outputs) for key, template in step.args.items()
        }
        if step.inputs:
            payload["inputs"] = [
                dict(outputs["input"]) if ref == MACRO_INPUT else dict(outputs[ref])
                for ref in step.inputs
            ]
        sub_request = InvocationRequest(
            object_id=target_id,
            fn_name=step.function,
            payload=payload,
            internal=True,
            caller_cls=resolved.name,
            trace_id=trace_id,
            trace_parent=step_span.span_id if step_span else None,
        )
        result = yield self.engine.invoke(sub_request)
        self.engine.tracer.finish(step_span, ok=result.ok)
        return result
