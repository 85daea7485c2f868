"""Coordinate reference systems.

Section 2 of the paper requires every GeoStream's spatial component to
carry a coordinate system, and makes a *shared* coordinate system the
precondition for binary operations. A :class:`CRS` here is either

* **geographic** — coordinates are (longitude, latitude) in degrees, or
* **projected** — coordinates are (x, y) in meters under a
  :class:`~repro.geo.projections.Projection`.

All cross-CRS transformation is routed through geodetic lon/lat, which is
exact for the projections implemented here (they share datums by
construction or the error is negligible at satellite-pixel scale).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import CRSError, CRSMismatchError
from .datum import GRS80, WGS84, Ellipsoid
from .projections import (
    GOES_WEST_LON,
    Geostationary,
    LambertConformalConic,
    Mercator,
    PlateCarree,
    Projection,
    Sinusoidal,
    utm_projection,
)

if TYPE_CHECKING:  # pragma: no cover
    pass

__all__ = [
    "CRS",
    "LATLON",
    "transform_points",
    "latlon",
    "plate_carree",
    "mercator",
    "utm",
    "lambert_conic",
    "sinusoidal",
    "goes_geostationary",
    "spec_of",
    "from_spec",
]


class CRS:
    """A coordinate reference system: geographic degrees or projected meters."""

    def __init__(self, name: str, projection: Projection | None, ellipsoid: Ellipsoid) -> None:
        self.name = name
        self.projection = projection
        self.ellipsoid = ellipsoid

    # -- classification -------------------------------------------------

    @property
    def is_geographic(self) -> bool:
        return self.projection is None

    @property
    def units(self) -> str:
        return "degree" if self.is_geographic else "meter"

    # -- conversion ------------------------------------------------------

    def to_lonlat(
        self, x: np.ndarray | float, y: np.ndarray | float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Convert native coordinates to (lon, lat) degrees."""
        if self.is_geographic:
            return np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return self.projection.inverse(x, y)

    def from_lonlat(
        self, lon: np.ndarray | float, lat: np.ndarray | float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Convert (lon, lat) degrees to native coordinates."""
        if self.is_geographic:
            return np.asarray(lon, dtype=float), np.asarray(lat, dtype=float)
        return self.projection.forward(lon, lat)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, CRS):
            return NotImplemented
        return self.projection == other.projection and self.ellipsoid == other.ellipsoid

    def __hash__(self) -> int:
        return hash((self.projection, self.ellipsoid))

    def __repr__(self) -> str:
        return f"CRS({self.name!r})"

    def require_same(self, other: "CRS", context: str = "operation") -> None:
        """Raise :class:`CRSMismatchError` unless ``other`` equals this CRS."""
        if self != other:
            raise CRSMismatchError(
                f"{context} requires a shared coordinate system, got "
                f"{self.name!r} and {other.name!r}"
            )


def latlon(ellipsoid: Ellipsoid = WGS84) -> CRS:
    """Geographic longitude/latitude in degrees."""
    return CRS(f"latlon:{ellipsoid.name}", None, ellipsoid)


def plate_carree(ellipsoid: Ellipsoid = WGS84, lon_0: float = 0.0) -> CRS:
    return CRS(f"plate_carree:{lon_0:g}", PlateCarree(ellipsoid, lon_0=lon_0), ellipsoid)


def mercator(ellipsoid: Ellipsoid = WGS84, lon_0: float = 0.0) -> CRS:
    return CRS(f"mercator:{lon_0:g}", Mercator(ellipsoid, lon_0=lon_0), ellipsoid)


def utm(zone: int, north: bool = True, ellipsoid: Ellipsoid = WGS84) -> CRS:
    hemi = "N" if north else "S"
    return CRS(f"utm:{zone}{hemi}", utm_projection(zone, north, ellipsoid), ellipsoid)


def lambert_conic(
    lat_1: float = 33.0,
    lat_2: float = 45.0,
    lat_0: float = 39.0,
    lon_0: float = -96.0,
    ellipsoid: Ellipsoid = WGS84,
) -> CRS:
    proj = LambertConformalConic(ellipsoid, lat_1=lat_1, lat_2=lat_2, lat_0=lat_0, lon_0=lon_0)
    return CRS(f"lcc:{lat_1:g}/{lat_2:g}", proj, ellipsoid)


def sinusoidal(lon_0: float = 0.0) -> CRS:
    from .datum import SPHERE

    return CRS(f"sinusoidal:{lon_0:g}", Sinusoidal(SPHERE, lon_0=lon_0), SPHERE)


def goes_geostationary(lon_0: float = GOES_WEST_LON, ellipsoid: Ellipsoid = GRS80) -> CRS:
    """The GOES fixed-grid view; stand-in for the paper's 'GOES Variable Format'."""
    return CRS(f"geos:{lon_0:g}", Geostationary(ellipsoid, lon_0=lon_0), ellipsoid)


LATLON = latlon()


def spec_of(crs: CRS) -> str:
    """Serialize a CRS built by this module's factories to a spec string.

    The inverse of :func:`from_spec`. Only factory-standard CRSs are
    serializable; hand-built projections with nonstandard ellipsoids
    raise :class:`CRSError`.
    """
    proj = crs.projection
    if proj is None:
        if crs.ellipsoid == WGS84:
            return "latlon"
        raise CRSError(f"geographic CRS on {crs.ellipsoid.name} has no spec form")
    if isinstance(proj, PlateCarree) and crs.ellipsoid == WGS84:
        return f"plate_carree:{proj.params['lon_0']:g}"
    if isinstance(proj, Mercator) and crs.ellipsoid == WGS84:
        return f"mercator:{proj.params['lon_0']:g}"
    if isinstance(proj, Sinusoidal):
        return f"sinusoidal:{proj.params['lon_0']:g}"
    if isinstance(proj, Geostationary) and crs.ellipsoid == GRS80:
        return f"geos:{proj.params['lon_0']:g}"
    if isinstance(proj, LambertConformalConic) and crs.ellipsoid == WGS84:
        p = proj.params
        return f"lcc:{p['lat_1']:g}:{p['lat_2']:g}:{p['lat_0']:g}:{p['lon_0']:g}"
    if type(proj).__name__ == "TransverseMercator" and crs.ellipsoid == WGS84:
        p = proj.params
        if p.get("k_0") == 0.9996 and p.get("false_easting") == 500_000.0:
            zone = round((p["lon_0"] + 183.0) / 6.0)
            hemi = "S" if p.get("false_northing") == 10_000_000.0 else "N"
            if 1 <= zone <= 60:
                return f"utm:{zone}{hemi}"
    raise CRSError(f"CRS {crs.name!r} is not spec-serializable")


def from_spec(spec: str) -> CRS:
    """Rebuild a CRS from a spec string produced by :func:`spec_of`.

    Also accepts the user-facing names of the query language
    (``latlon``, ``utm:10``, ``geos``...).
    """
    spec = spec.strip().lower()
    if spec in ("latlon", "lonlat", "wgs84"):
        return LATLON
    head, _, rest = spec.partition(":")
    try:
        if head == "plate_carree":
            return plate_carree(lon_0=float(rest) if rest else 0.0)
        if head == "mercator":
            return mercator(lon_0=float(rest) if rest else 0.0)
        if head == "sinusoidal":
            return sinusoidal(lon_0=float(rest) if rest else 0.0)
        if head == "geos":
            return goes_geostationary(float(rest) if rest else GOES_WEST_LON)
        if head == "lcc":
            if not rest:
                return lambert_conic()
            lat_1, lat_2, lat_0, lon_0 = (float(v) for v in rest.split(":"))
            return lambert_conic(lat_1, lat_2, lat_0, lon_0)
        if head == "utm":
            zone_text = rest
            north = True
            if zone_text.endswith("n"):
                zone_text = zone_text[:-1]
            elif zone_text.endswith("s"):
                zone_text = zone_text[:-1]
                north = False
            return utm(int(zone_text), north)
    except (ValueError, TypeError) as exc:
        raise CRSError(f"malformed CRS spec {spec!r}: {exc}") from exc
    raise CRSError(f"unknown CRS spec {spec!r}")


def transform_points(
    src: CRS,
    dst: CRS,
    x: np.ndarray | float,
    y: np.ndarray | float,
) -> tuple[np.ndarray, np.ndarray]:
    """Transform coordinate arrays from ``src`` to ``dst``.

    Points outside either CRS's domain come back as NaN. A same-CRS
    transform is a cheap pass-through.
    """
    if not isinstance(src, CRS) or not isinstance(dst, CRS):
        raise CRSError("transform_points requires CRS instances")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if src == dst:
        return x, y
    lon, lat = src.to_lonlat(x, y)
    return dst.from_lonlat(lon, lat)
