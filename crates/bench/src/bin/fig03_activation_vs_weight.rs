//! Figure 3: perplexity with only activations or only weights in MXFP4.

use mx_bench::{settings, table};
use mx_formats::QuantScheme;
use mx_llm::eval::{Dataset, PerplexityEvaluator};
use mx_llm::{ModelConfig, ModelQuantConfig};

fn main() {
    let configs: Vec<(&str, ModelQuantConfig)> = vec![
        ("Base (BF16)", ModelQuantConfig::BASELINE),
        ("A-BF16,W-FP4", ModelQuantConfig::weights_only_mxfp4()),
        ("A-FP4,W-BF16", ModelQuantConfig::activations_only_mxfp4()),
        ("MXFP4", ModelQuantConfig::uniform(QuantScheme::mxfp4())),
    ];
    let names: Vec<&str> = configs.iter().map(|(n, _)| *n).collect();
    table::header("Figure 3: perplexity across a mix of BF16 and MXFP4", &names);
    for cfg in ModelConfig::figure2_models() {
        let evaluator = PerplexityEvaluator::new(cfg.clone(), settings::quality(Dataset::Wiki2));
        let cells: Vec<f64> = configs.iter().map(|(_, q)| evaluator.evaluate(*q).perplexity).collect();
        table::row(&cfg.name, &cells);
    }
    println!("\nPaper shape: weight-only MXFP4 is nearly harmless while activation-only MXFP4 degrades");
    println!("substantially. Note: with synthetic random weights the weight-only column");
    println!("degrades more than on trained checkpoints, so the gap is smaller here than in the paper.");
}
