"""
One transport cycle through the fundamental unit
================================================

The smallest working station is a (Compression, Longitudinal, Compression)
triple.  The station's phase machine grasps the object with both compression
rings, then runs one release-stroke-regrasp cycle; watch the object climb
one stroke.
"""

from peristation import (
    LONGITUDINAL_STROKE_FRACTION,
    ControlConfig,
    DetectionConfig,
    ObjectSpec,
    ObjectState,
    Plant,
    PlantParams,
    RingGeometry,
    SimulatedBackend,
    SurrogateMaterial,
    build_station,
    calibrate_kappa,
    run_station,
)

ring = RingGeometry(40.0, 25.0, 1.5, 12.0, 2.0, 28.8, 5)
material = SurrogateMaterial(100.0, 0.45, calibrate_kappa(ring, 100.0, 0.69, 15.0))
params = PlantParams()

layout = build_station(ring, 3, 20.0, 20.0)
obj = ObjectState(ObjectSpec(17.5, 75.0), 0.0)
plant = Plant(layout, obj, params, material)
backend = SimulatedBackend(plant)

stroke = LONGITUDINAL_STROKE_FRACTION * layout.module(2).height_h
print(f"station top {layout.station_top} mm, stroke {stroke} mm")
print(f"object starts at z = {plant.object.z} mm")

result = run_station(backend, layout, obj.spec, 0.0, params, DetectionConfig(),
                     ControlConfig(max_cycles=1), duration_s=60.0)
print(f"[{result.sim_time_s:.3f} s] {result.outcome}, object at z = {result.final_z} mm")

print()
print("station events:")
for t, _, text in result.events:
    print(f"  {t:9.3f} s  {text}")

drops = [text for _, _, text in result.events if text.startswith("drop")]
print("drops:", len(drops))
