package kernel

// PageNode reports which node holds a virtual page; -1 if untouched.
func (k *Kernel) PageNode(va uint64) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	if pa, ok := k.pageTable[va/PageBytes]; ok {
		return frameNode(pa)
	}
	return -1
}

// PagesPerNode reports how many touched pages live on each node.
func (k *Kernel) PagesPerNode() []int {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]int, k.pr.Cfg.TotalNodes())
	for _, pa := range k.pageTable {
		out[frameNode(pa)]++
	}
	return out
}
