let dead_caller x = Bad_l14.only_from_peer x
