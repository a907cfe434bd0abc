fn main() {
    std::fs::write(
        "configs/tx2.json",
        uarch::Tx2Latency::table().to_json().pretty(),
    )
    .unwrap();
    std::fs::write(
        "configs/a64fx.json",
        uarch::A64fxLatency::table().to_json().pretty(),
    )
    .unwrap();
    println!("written");
}
