//! Tiled matrices: an `nt × nt` grid of `nb × nb` tiles (Chameleon's
//! descriptor layout), each tile behind its own lock.

use crate::scalar::Scalar;
use crate::tile::Tile;
use parking_lot::{Mutex, MutexGuard};
use ugpc_runtime::{DataId, DataRegistry};

/// A square tiled matrix of dimension `nt·nb`.
pub struct TiledMatrix<T> {
    nt: usize,
    nb: usize,
    /// Column-major tile grid: tile (i, j) at `i + j·nt`. Each tile has its
    /// own lock; DAG dependencies guarantee writers are exclusive, the
    /// locks make the compiler-visible safety local.
    tiles: Vec<Mutex<Tile<T>>>,
}

impl<T: Scalar> TiledMatrix<T> {
    pub fn zeros(nt: usize, nb: usize) -> Self {
        let tiles = (0..nt * nt).map(|_| Mutex::new(Tile::zeros(nb))).collect();
        TiledMatrix { nt, nb, tiles }
    }

    /// Build from a function of global (row, col).
    pub fn from_fn(nt: usize, nb: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let m = Self::zeros(nt, nb);
        for tj in 0..nt {
            for ti in 0..nt {
                let mut tile = m.tile(ti, tj);
                for j in 0..nb {
                    for i in 0..nb {
                        tile[(i, j)] = f(ti * nb + i, tj * nb + j);
                    }
                }
            }
        }
        m
    }

    #[inline]
    pub fn nt(&self) -> usize {
        self.nt
    }

    #[inline]
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Global dimension `nt·nb`.
    #[inline]
    pub fn n(&self) -> usize {
        self.nt * self.nb
    }

    /// Lock and return tile (i, j).
    pub fn tile(&self, i: usize, j: usize) -> MutexGuard<'_, Tile<T>> {
        assert!(i < self.nt && j < self.nt, "tile ({i},{j}) out of range");
        self.tiles[i + j * self.nt].lock()
    }

    /// Copy tile (i, j) out (brief lock).
    pub fn tile_clone(&self, i: usize, j: usize) -> Tile<T> {
        self.tile(i, j).clone()
    }

    /// Read one global element (locks its tile).
    pub fn get(&self, gi: usize, gj: usize) -> T {
        let t = self.tile(gi / self.nb, gj / self.nb);
        t[(gi % self.nb, gj % self.nb)]
    }

    /// Flatten to one dense tile of dimension `n()` (tests only — O(n²)).
    pub fn to_dense(&self) -> Tile<T> {
        Tile::from_fn(self.n(), |i, j| self.get(i, j))
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        let mut sum = 0.0;
        for idx in 0..self.nt * self.nt {
            let t = self.tiles[idx].lock();
            let n = t.norm_fro();
            sum += n * n;
        }
        sum.sqrt()
    }

    /// Register every tile as a data handle; returns the grid of ids in
    /// the same column-major layout as the tiles.
    pub fn register(&self, reg: &mut DataRegistry) -> Vec<DataId> {
        let bytes = ugpc_hwsim::Bytes((self.nb * self.nb * std::mem::size_of::<T>()) as f64);
        (0..self.nt * self.nt)
            .map(|_| reg.register(bytes))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_global_indexing() {
        let m = TiledMatrix::<f64>::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.n(), 6);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(4, 5), 45.0);
        // Element (4,5) lives in tile (1,1), local (1,2).
        assert_eq!(m.tile(1, 1)[(1, 2)], 45.0);
    }

    #[test]
    fn to_dense_round_trip() {
        let m = TiledMatrix::<f32>::from_fn(3, 2, |i, j| (i + 100 * j) as f32);
        let d = m.to_dense();
        for j in 0..6 {
            for i in 0..6 {
                assert_eq!(d[(i, j)], (i + 100 * j) as f32);
            }
        }
    }

    #[test]
    fn norm_matches_dense_norm() {
        let m = TiledMatrix::<f64>::from_fn(2, 4, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        assert!((m.norm_fro() - m.to_dense().norm_fro()).abs() < 1e-12);
    }

    #[test]
    fn register_creates_handles_with_tile_bytes() {
        let m = TiledMatrix::<f64>::zeros(2, 8);
        let mut reg = DataRegistry::new();
        let ids = m.register(&mut reg);
        assert_eq!(ids.len(), 4);
        assert_eq!(reg.bytes(ids[0]), ugpc_hwsim::Bytes((8 * 8 * 8) as f64));
        let m32 = TiledMatrix::<f32>::zeros(1, 8);
        let ids32 = m32.register(&mut reg);
        assert_eq!(reg.bytes(ids32[0]), ugpc_hwsim::Bytes((8 * 8 * 4) as f64));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tile_bounds_checked() {
        let m = TiledMatrix::<f64>::zeros(2, 2);
        let _guard = m.tile(2, 0);
    }

    #[test]
    fn concurrent_tile_access() {
        // Different tiles can be locked simultaneously from different
        // threads without deadlock.
        let m = TiledMatrix::<f64>::zeros(2, 2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut t = m.tile(0, 0);
                t[(0, 0)] = 1.0;
            });
            s.spawn(|| {
                let mut t = m.tile(1, 1);
                t[(0, 0)] = 2.0;
            });
        });
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(2, 2), 2.0);
    }
}
