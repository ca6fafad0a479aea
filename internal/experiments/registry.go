package experiments

// experiments maps each experiment id to its driver.
var experiments = map[string]runner{
	"fig3":                {"weak workers cancel the benefit of distributed learning", fig3},
	"fig4":                {"computation time and energy are linear in mini-batch size, slope varies with device and temperature", fig4},
	"fig5":                {"gradient scaling schemes of the SGD algorithms", fig5},
	"fig6":                {"Online FL boosts hashtag recommendation vs Standard FL", fig6},
	"fig7":                {"staleness distribution of the tweet workload", fig7},
	"fig8":                {"impact of staleness on learning (AdaSGD vs DynSGD vs FedAvg vs SSGD)", fig8},
	"fig9":                {"similarity-based boosting under long-tail staleness", fig9},
	"fig10":               {"staleness awareness with IID data (E-MNIST, CIFAR-100)", fig10},
	"fig11":               {"staleness awareness with differential privacy", fig11},
	"fig12":               {"I-Prof vs MAUI under a computation-time SLO", fig12},
	"fig13":               {"I-Prof vs MAUI under an energy SLO", fig13},
	"fig14":               {"resource allocation: FLeet vs CALOREE", fig14},
	"fig15":               {"controller threshold-based task pruning", fig15},
	"table2":              {"CALOREE deadline error on unseen devices", table2},
	"energy":              {"daily energy cost of Online FL per user", energy},
	"ablation-dampening":  {"dampening-function ablation (exponential vs inverse vs constant vs drop)", ablationDampening},
	"ablation-similarity": {"AdaSGD with similarity boosting disabled", ablationSimilarity},
	"ablation-spct":       {"sensitivity to the s% system parameter", ablationSPct},
	"ablation-k":          {"aggregation parameter K ablation", ablationK},
	"trace-staleness":     {"emergent staleness from event-driven device/network simulation", traceStaleness},
	"byzantine":           {"robust aggregation under adversarial workers (pluggable per §4)", byzantine},
}
