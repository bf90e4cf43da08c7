fn run() -> u32 {
    lib::stale_waiver();
    let collision = lib::used();
    collision
}
