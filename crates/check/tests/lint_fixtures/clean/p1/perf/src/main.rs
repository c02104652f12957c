//! The perf harness names `measured`, `square` and `corner`.

fn main() {
    let _ = kern::measured() + u64::from(kern::square().sides);
    let _ = kern::corner();
}
