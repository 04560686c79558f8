let included x = x * 2
