"""Unit tests for the FaaS substrate: contract, registry, engines."""

import pytest

from repro.errors import InvocationError, ValidationError
from repro.invoker.request import InvocationRequest
from repro.faas.deployment_engine import DeploymentEngine, DeploymentModel
from repro.faas.knative import KnativeEngine, KnativeModel
from repro.faas.registry import FunctionRegistry
from repro.faas.runtime import InvocationTask, TaskCompletion, TaskContext
from repro.model.function import FunctionDefinition, ProvisionSpec
from repro.orchestrator.cluster import Cluster
from repro.orchestrator.resources import ResourceSpec
from repro.orchestrator.scheduler import Scheduler

from tests.helpers import make_platform


def task(**kwargs):
    defaults = dict(
        request_id="r1", cls="C", object_id="o1", fn_name="f", image="img/f"
    )
    defaults.update(kwargs)
    return InvocationTask(**defaults)


class TestTaskContext:
    def test_state_diffing(self):
        ctx = TaskContext(task(state={"a": 1, "b": 2}))
        ctx.state["a"] = 10
        ctx.state["c"] = 3
        assert ctx.state_updates() == {"a": 10, "c": 3}

    def test_unchanged_state_no_updates(self):
        ctx = TaskContext(task(state={"a": 1}))
        assert ctx.state_updates() == {}

    def test_completion_carries_output_and_updates(self):
        ctx = TaskContext(task(state={"a": 1}))
        ctx.state["a"] = 2
        ctx.update_file("image", "bucket/key")
        completion = ctx.completion({"done": True})
        assert completion.ok
        assert completion.output == {"done": True}
        assert completion.state_updates == {"a": 2}
        assert completion.file_updates == {"image": "bucket/key"}

    def test_immutable_task_rejects_mutation(self):
        ctx = TaskContext(task(state={"a": 1}, immutable=True))
        ctx.state["a"] = 2
        completion = ctx.completion({})
        assert not completion.ok
        assert "immutable" in completion.error

    def test_immutable_task_allows_pure_read(self):
        ctx = TaskContext(task(state={"a": 1}, immutable=True))
        assert ctx.completion({"read": ctx.state["a"]}).ok

    def test_services_lookup(self):
        ctx = TaskContext(task(), services={"db": "the-db"})
        assert ctx.service("db") == "the-db"
        with pytest.raises(ValidationError):
            ctx.service("missing")

    def test_failure_completion(self):
        completion = TaskCompletion.failure("r9", "boom")
        assert not completion.ok
        assert completion.request_id == "r9"


class TestRegistry:
    def test_register_and_get(self):
        registry = FunctionRegistry()
        registry.register("img/a", lambda ctx: {}, service_time_s=0.5)
        assert registry.get("img/a").service_time(task()) == 0.5
        assert "img/a" in registry

    def test_decorator(self):
        registry = FunctionRegistry()

        @registry.function("img/b", service_time_s=0.1)
        def handler(ctx):
            return {}

        assert registry.get("img/b").handler is handler

    def test_unknown_image(self):
        with pytest.raises(ValidationError, match="not registered"):
            FunctionRegistry().get("ghost")

    def test_callable_service_time(self):
        registry = FunctionRegistry()
        registry.register(
            "img/c", lambda ctx: {}, service_time_s=lambda t: len(t.payload) * 0.1
        )
        assert registry.get("img/c").service_time(task(payload={"a": 1, "b": 2})) == pytest.approx(0.2)

    def test_generator_handler_detected(self):
        registry = FunctionRegistry()

        def gen_handler(ctx):
            yield None

        registry.register("img/d", gen_handler)
        assert registry.get("img/d").is_generator_handler

    def test_invalid_registrations(self):
        registry = FunctionRegistry()
        with pytest.raises(ValidationError):
            registry.register("", lambda ctx: {})
        with pytest.raises(ValidationError):
            registry.register("img/x", "not callable")

    def test_merged_with(self):
        a = FunctionRegistry()
        a.register("img/a", lambda ctx: {"from": "a"})
        b = FunctionRegistry()
        b.register("img/a", lambda ctx: {"from": "b"})
        b.register("img/b", lambda ctx: {})
        merged = a.merged_with(b)
        assert merged.images == ("img/a", "img/b")


def build_engine(env, engine_cls, registry, model=None, nodes=3):
    cluster = Cluster(env)
    for index in range(nodes):
        cluster.add_node(f"vm-{index}", ResourceSpec(4000, 16384))
    scheduler = Scheduler(cluster)
    if model is None:
        return engine_cls(env, scheduler, registry)
    return engine_cls(env, scheduler, registry, model)


def definition(min_scale=1, max_scale=8, concurrency=4):
    return FunctionDefinition(
        name="f",
        image="img/f",
        provision=ProvisionSpec(
            concurrency=concurrency, cpu_millis=500, min_scale=min_scale, max_scale=max_scale
        ),
    )


@pytest.fixture
def registry():
    reg = FunctionRegistry()

    @reg.function("img/f", service_time_s=0.01)
    def handler(ctx):
        ctx.state["hits"] = int(ctx.state.get("hits") or 0) + 1
        return {"echo": ctx.payload.get("msg")}

    @reg.function("img/fail", service_time_s=0.01)
    def failing(ctx):
        raise RuntimeError("application bug")

    return reg


class TestKnativeEngine:
    def test_invoke_returns_completion(self, env, registry):
        engine = build_engine(env, KnativeEngine, registry)
        svc = engine.deploy("f", definition())

        def scenario(env):
            completion = yield svc.invoke(task(payload={"msg": "hi"}, state={"hits": 0}))
            return completion

        completion = env.run(until=env.process(scenario(env)))
        assert completion.ok
        assert completion.output == {"echo": "hi"}
        assert completion.state_updates == {"hits": 1}

    def test_handler_exception_becomes_failed_completion(self, env, registry):
        import dataclasses

        engine = build_engine(env, KnativeEngine, registry)
        svc = engine.deploy("bad", dataclasses.replace(definition(), image="img/fail"))

        def scenario(env):
            completion = yield svc.invoke(task(image="img/fail"))
            return completion

        completion = env.run(until=env.process(scenario(env)))
        assert not completion.ok
        assert "application bug" in completion.error
        assert svc.errors == 1

    def test_scale_to_zero_and_cold_start(self, env, registry):
        model = KnativeModel(cold_start_s=1.0, scale_to_zero_grace_s=5.0)
        engine = build_engine(env, KnativeEngine, registry, model)
        svc = engine.deploy("f", definition(min_scale=0))
        env.run(until=10.0)
        svc.tick()
        assert svc.replicas == 0

        def scenario(env):
            start = env.now
            yield svc.invoke(task())
            return env.now - start

        latency = env.run(until=env.process(scenario(env)))
        assert latency >= 1.0  # paid the cold start
        assert svc.cold_starts >= 1

    def test_autoscaler_adds_replicas_under_load(self, env, registry):
        model = KnativeModel(cold_start_s=0.1, autoscale_interval_s=1.0)
        engine = build_engine(env, KnativeEngine, registry, model)
        svc = engine.deploy("f", definition(concurrency=2, max_scale=8))

        def client(env):
            while env.now < 5.0:
                yield svc.invoke(task())

        for _ in range(16):
            env.process(client(env))
        env.run(until=5.0)
        assert svc.replicas > 1

    def test_autoscaler_respects_max_scale(self, env, registry):
        model = KnativeModel(cold_start_s=0.01, autoscale_interval_s=0.5)
        engine = build_engine(env, KnativeEngine, registry, model)
        svc = engine.deploy("f", definition(concurrency=1, max_scale=2))

        def client(env):
            while env.now < 4.0:
                yield svc.invoke(task())

        for _ in range(20):
            env.process(client(env))
        env.run(until=4.0)
        assert svc.replicas <= 2

    def test_deploy_duplicate_name_rejected(self, env, registry):
        engine = build_engine(env, KnativeEngine, registry)
        engine.deploy("f", definition())
        with pytest.raises(ValidationError):
            engine.deploy("f", definition())

    def test_unknown_service(self, env, registry):
        engine = build_engine(env, KnativeEngine, registry)
        with pytest.raises(InvocationError):
            engine.service("ghost")

    def test_delete_service(self, env, registry):
        engine = build_engine(env, KnativeEngine, registry)
        engine.deploy("f", definition())
        engine.delete("f")
        assert "f" not in engine


class TestDeploymentEngine:
    def test_pre_provisioned_replicas(self, env, registry):
        engine = build_engine(env, DeploymentEngine, registry)
        svc = engine.deploy("f", definition(min_scale=4))
        assert svc.replicas == 4

    def test_no_scale_from_zero(self, env, registry):
        engine = build_engine(env, DeploymentEngine, registry)
        svc = engine.deploy("f", definition(min_scale=1))
        env.run(until=5.0)
        svc.deployment.scale(0)

        def scenario(env):
            try:
                yield svc.invoke(task())
            except InvocationError:
                return "refused"
            return "served"

        assert env.run(until=env.process(scenario(env))) == "refused"

    def test_lower_overhead_than_knative(self, env, registry):
        kn_model = KnativeModel(request_overhead_s=0.005, cold_start_s=0.01)
        dep_model = DeploymentModel(request_overhead_s=0.0004, cold_start_s=0.01)
        kn = build_engine(env, KnativeEngine, registry, kn_model)
        dep = build_engine(env, DeploymentEngine, registry, dep_model)
        kn_svc = kn.deploy("f", definition())
        dep_svc = dep.deploy("f", definition())
        env.run(until=1.0)  # both warm

        def timed(svc):
            start = env.now
            yield svc.invoke(task())
            return env.now - start

        t_kn = env.run(until=env.process(timed(kn_svc)))
        t_dep = env.run(until=env.process(timed(dep_svc)))
        assert t_dep < t_kn

    def test_optional_hpa(self, env, registry):
        model = DeploymentModel(autoscale=True, cold_start_s=0.01)
        engine = build_engine(env, DeploymentEngine, registry, model)
        svc = engine.deploy("f", definition(min_scale=1, concurrency=1, max_scale=8))

        def client(env):
            while env.now < 6.0:
                yield svc.invoke(task())

        for _ in range(10):
            env.process(client(env))
        env.run(until=6.0)
        assert svc.replicas > 1
        svc.stop()

    def test_hpa_takes_its_floor_from_the_service(self, env, registry):
        model = DeploymentModel(autoscale=True, cold_start_s=0.01)
        engine = build_engine(env, DeploymentEngine, registry, model)
        svc = engine.deploy("f", definition(min_scale=1))
        svc.set_floor(3)
        assert svc.replicas == 3
        assert svc.hpa.min_replicas == svc.min_scale == 3
        env.run(until=40.0)  # idle HPA ticks past the stabilization window
        assert svc.replicas == 3
        svc.set_floor(1)
        env.run(until=80.0)
        assert svc.replicas == 1
        svc.stop()


class TestGeneratorHandlers:
    def test_handler_can_yield_timed_io(self, env):
        registry = FunctionRegistry()

        def handler(ctx):
            yield ctx.service("env").timeout(0.5)
            return {"waited": True}

        registry.register("img/io", handler, service_time_s=0.0)
        engine = build_engine(env, DeploymentEngine, registry)
        svc = engine.deploy(
            "io",
            FunctionDefinition(
                name="io", image="img/io", provision=ProvisionSpec(min_scale=1)
            ),
            services={"env": env},
        )
        env.run(until=2.0)

        def scenario(env):
            start = env.now
            completion = yield svc.invoke(task(image="img/io"))
            return completion, env.now - start

        completion, elapsed = env.run(until=env.process(scenario(env)))
        assert completion.ok
        assert completion.output == {"waited": True}
        assert elapsed >= 0.5


TIMED_YAML = """
name: timed
classes:
  - name: Timed
    keySpecs: [{name: n, type: INT, default: 0}]
    functions:
      - {name: work, image: timed/work, mutable: false, provision: {minScale: 1}}
"""


def timed_platform(service_time_s):
    return make_platform(TIMED_YAML, {"timed/work": (lambda ctx: {}, service_time_s)})


def run_for(platform, obj, seconds):
    """Invoke ``work`` on ``obj`` and run the clock ``seconds`` at most;
    the invocation's process (done or not)."""
    proc = platform.engine.invoke(InvocationRequest(object_id=obj, fn_name="work"))
    platform.env.run(until=platform.env.now + seconds)
    return proc


class TestServiceTimeModel:
    """A service time is a finite, non-negative number of seconds."""

    @pytest.mark.parametrize("bad", [-0.001, float("inf"), float("-inf"), float("nan"), "soon"])
    def test_registration_refuses_a_bad_constant(self, bad):
        registry = FunctionRegistry()
        with pytest.raises(ValidationError, match="service time"):
            registry.register("img/bad", lambda ctx: {}, service_time_s=bad)
        assert "img/bad" not in registry
        with pytest.raises(ValidationError, match="service time"):
            registry.function("img/bad", service_time_s=bad)(lambda ctx: {})

    def test_a_raising_model_releases_its_pod_slot(self):
        calls = []

        def flaky(task):
            calls.append(task.request_id)
            if len(calls) == 1:
                raise RuntimeError("model broke")
            return 0.002

        platform = timed_platform(flaky)
        obj = platform.new_object("Timed")
        failed = platform.invoke(obj, "work", raise_on_error=False)
        assert not failed.ok and failed.error_type == "InternalError"
        pods = platform.crm.runtime("Timed").service("work").deployment.pods
        assert [pod.slots.in_use for pod in pods] == [0] * len(pods)
        assert platform.invoke(obj, "work").ok
        assert [pod.slots.in_use for pod in pods] == [0] * len(pods)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_a_bad_model_value_fails_the_invocation(self, bad):
        platform = timed_platform(lambda task: bad)
        obj = platform.new_object("Timed")
        proc = run_for(platform, obj, 60.0)
        assert proc.triggered, "the invocation was still pending after 60 simulated seconds"
        result = proc.value
        assert not result.ok and result.error_type == "ValidationError"
        assert "service time" in result.error
        pods = platform.crm.runtime("Timed").service("work").deployment.pods
        assert [pod.slots.in_use for pod in pods] == [0] * len(pods)
