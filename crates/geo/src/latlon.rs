//! Geographic coordinates and great-circle distance.

/// Mean Earth radius in meters (IUGG).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// A WGS-84 latitude/longitude pair in degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatLon {
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Longitude in degrees, positive east.
    pub lon: f64,
}

impl LatLon {
    /// Construct from degrees.
    pub fn new(lat: f64, lon: f64) -> Self {
        LatLon { lat, lon }
    }

    /// Great-circle distance to `other` in meters (haversine formula).
    pub fn haversine_m(&self, other: &LatLon) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }

    /// Destination point after moving `east_m` meters east and `north_m`
    /// meters north on the local tangent plane (small-offset approximation,
    /// accurate to well under 0.1% at city scales).
    pub fn offset_m(&self, east_m: f64, north_m: f64) -> LatLon {
        let dlat = north_m / EARTH_RADIUS_M;
        let dlon = east_m / (EARTH_RADIUS_M * self.lat.to_radians().cos());
        LatLon {
            lat: self.lat + dlat.to_degrees(),
            lon: self.lon + dlon.to_degrees(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shanghai People's Square, used throughout the synthetic city.
    fn shanghai() -> LatLon {
        LatLon::new(31.2304, 121.4737)
    }

    #[test]
    fn zero_distance_to_self() {
        let p = shanghai();
        assert!(p.haversine_m(&p) < 1e-6);
    }

    #[test]
    fn known_distance_shanghai_to_beijing() {
        let sh = shanghai();
        let bj = LatLon::new(39.9042, 116.4074);
        let d = sh.haversine_m(&bj);
        // ~1068 km
        assert!((d - 1_068_000.0).abs() < 10_000.0, "d = {d}");
    }

    #[test]
    fn haversine_symmetric() {
        let a = shanghai();
        let b = LatLon::new(31.30, 121.50);
        assert!((a.haversine_m(&b) - b.haversine_m(&a)).abs() < 1e-6);
    }

    #[test]
    fn offset_roundtrip_500m() {
        let p = shanghai();
        let q = p.offset_m(500.0, 0.0);
        let d = p.haversine_m(&q);
        assert!((d - 500.0).abs() < 1.0, "d = {d}");
        let r = p.offset_m(0.0, -500.0);
        let d2 = p.haversine_m(&r);
        assert!((d2 - 500.0).abs() < 1.0, "d2 = {d2}");
    }

    #[test]
    fn diagonal_offset_is_pythagorean() {
        let p = shanghai();
        let q = p.offset_m(300.0, 400.0);
        let d = p.haversine_m(&q);
        assert!((d - 500.0).abs() < 2.0, "d = {d}");
    }
}
